type violation =
  | Unassigned of int
  | Collision of { a : int; b : int; slot : int }
  | Early_parent of { node : int; parent : int }
  | No_forwarder of { node : int }

let pp_violation ppf = function
  | Unassigned v -> Format.fprintf ppf "node %d has no slot" v
  | Collision { a; b; slot } ->
    Format.fprintf ppf "nodes %d and %d are within 2 hops and share slot %d" a
      b slot
  | Early_parent { node; parent } ->
    Format.fprintf ppf
      "shortest-path parent %d of node %d does not transmit later" parent node
  | No_forwarder { node } ->
    Format.fprintf ppf "no neighbour of node %d forwards its data" node

let violation_to_string v = Format.asprintf "%a" pp_violation v

(* Monomorphic total order for violation reports (stable, readable output
   without the polymorphic compare the slp-lint poly-compare rule bans). *)
let violation_key = function
  | Unassigned v -> (0, v, 0, 0)
  | Collision { a; b; slot } -> (1, a, b, slot)
  | Early_parent { node; parent } -> (2, node, parent, 0)
  | No_forwarder { node } -> (3, node, 0, 0)

let compare_violation x y =
  let k1, a1, b1, c1 = violation_key x and k2, a2, b2, c2 = violation_key y in
  match Int.compare k1 k2 with
  | 0 -> (
    match Int.compare a1 a2 with
    | 0 -> (
      match Int.compare b1 b2 with 0 -> Int.compare c1 c2 | c -> c)
    | c -> c)
  | c -> c

let non_colliding g sched v =
  let s = Schedule.raw_slot sched v in
  s <> Schedule.none
  && List.for_all
       (fun m -> Schedule.raw_slot sched m <> s)
       (Slpdas_wsn.Graph.two_hop_neighbourhood g v)

let collisions g sched =
  let two_hop = Slpdas_wsn.Graph.two_hop g in
  let acc = ref [] in
  for v = Slpdas_wsn.Graph.n g - 1 downto 0 do
    let s = Schedule.raw_slot sched v in
    if s <> Schedule.none then
      for i = 0 to Array.length two_hop.(v) - 1 do
        let m = two_hop.(v).(i) in
        if m > v && Schedule.raw_slot sched m = s then
          acc := Collision { a = v; b = m; slot = s } :: !acc
      done
  done;
  List.sort compare_violation !acc

let unassigned sched =
  let acc = ref [] in
  for v = Schedule.n sched - 1 downto 0 do
    if v <> Schedule.sink sched && Schedule.raw_slot sched v = Schedule.none
    then acc := Unassigned v :: !acc
  done;
  !acc

(* Strong condition 3: every neighbour on a shortest path towards the sink
   transmits strictly later (or is the sink). *)
let strong_condition3 g sched =
  let sink = Schedule.sink sched in
  let dist = Slpdas_wsn.Graph.bfs_distances g sink in
  let acc = ref [] in
  for v = Slpdas_wsn.Graph.n g - 1 downto 0 do
    let s = Schedule.raw_slot sched v in
    if v <> sink && s <> Schedule.none && dist.(v) > 0 then begin
      let neighbours = Slpdas_wsn.Graph.neighbours g v in
      for i = 0 to Array.length neighbours - 1 do
        let parent = neighbours.(i) in
        (* An unassigned parent reads [Schedule.none], below every slot. *)
        if parent <> sink && dist.(parent) = dist.(v) - 1
           && Schedule.raw_slot sched parent <= s
        then acc := Early_parent { node = v; parent } :: !acc
      done
    end
  done;
  List.rev !acc

(* Weak condition 3: at least one neighbour is the sink or transmits later
   (an unassigned neighbour reads [Schedule.none], below every slot). *)
let weak_condition3 g sched =
  let sink = Schedule.sink sched in
  let acc = ref [] in
  for v = Slpdas_wsn.Graph.n g - 1 downto 0 do
    let s = Schedule.raw_slot sched v in
    if v <> sink && s <> Schedule.none then begin
      let neighbours = Slpdas_wsn.Graph.neighbours g v in
      let forwarded = ref false in
      for i = 0 to Array.length neighbours - 1 do
        let m = neighbours.(i) in
        if m = sink || Schedule.raw_slot sched m > s then forwarded := true
      done;
      if not !forwarded then acc := No_forwarder { node = v } :: !acc
    end
  done;
  List.rev !acc

let check_strong g sched =
  unassigned sched @ strong_condition3 g sched @ collisions g sched

let check_weak g sched =
  unassigned sched @ weak_condition3 g sched @ collisions g sched

let is_strong g sched = check_strong g sched = []

let is_weak g sched = check_weak g sched = []
