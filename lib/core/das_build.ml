type result = {
  schedule : Schedule.t;
  parent : int option array;
  hop : int array;
}

let default_delta = 100

(* Run-salted total order on node identifiers.  The paper breaks collision
   ties "larger identifier decrements"; applied verbatim this systematically
   pushes low slots towards high-id regions of the grid.  In the paper's
   TOSSIM runs the equivalent order was scrambled by timing noise, so seeded
   runs scramble it too; [salt = 0] keeps the plain identifier order. *)
let node_order_key ~salt v =
  if salt = 0 then v
  else begin
    let r = Slpdas_util.Rng.create ((salt * 2_654_435_761) lxor (v * 40_503)) in
    Int64.to_int (Int64.logand (Slpdas_util.Rng.bits64 r) 0x3FFFFFFFFFFFFFFFL)
  end

(* Nodes [v] grouped by [key v] into [rows] rows, as a CSR (offsets,
   members) with each row in ascending node order; a negative key leaves
   [v] out. *)
let group ~rows ~n key =
  let offsets = Array.make (rows + 1) 0 in
  for v = 0 to n - 1 do
    let k = key v in
    if k >= 0 then offsets.(k) <- offsets.(k) + 1
  done;
  for r = 1 to rows do
    offsets.(r) <- offsets.(r) + offsets.(r - 1)
  done;
  (* [offsets.(r)] is now where row [r] ends; filling each row backwards,
     in descending node order, moves it to where the row starts. *)
  let members = Array.make offsets.(rows) 0 in
  for v = n - 1 downto 0 do
    let k = key v in
    if k >= 0 then begin
      offsets.(k) <- offsets.(k) - 1;
      members.(offsets.(k)) <- v
    end
  done;
  (offsets, members)

let children parent =
  let n = Array.length parent in
  group ~rows:n ~n (fun v -> match parent.(v) with Some p -> p | None -> -1)

(* Smallest assigned slot among [v]'s shortest-path parents other than the
   sink, never above [bound]. *)
let rec parents_floor schedule ~sink ~hop v neighbours i bound =
  if i = Array.length neighbours then bound
  else begin
    let m = neighbours.(i) in
    let bound =
      if m <> sink && hop.(m) = hop.(v) - 1 then begin
        let s = Schedule.raw_slot schedule m in
        if s <> Schedule.none && s < bound then s else bound
      end
      else bound
    in
    parents_floor schedule ~sink ~hop v neighbours (i + 1) bound
  end

(* Whether some neighbour from index [i] on is the sink or transmits after
   slot [sv]. *)
let rec has_forwarder schedule ~sink sv neighbours i =
  i < Array.length neighbours
  && (let m = neighbours.(i) in
      m = sink
      || Schedule.raw_slot schedule m > sv
      || has_forwarder schedule ~sink sv neighbours (i + 1))

(* [hop] is the hop distance from the schedule's sink. *)
let fixpoint ?(delta = default_delta) ?(salt = 0) ~strong g ~hop ~schedule
    ~parent ~pinned =
  let n = Slpdas_wsn.Graph.n g in
  let sink = Schedule.sink schedule in
  let none = Schedule.none in
  let by_hop = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match Int.compare hop.(a) hop.(b) with 0 -> Int.compare a b | c -> c)
    by_hop;
  let position = Array.make n 0 in
  Array.iteri (fun i v -> position.(v) <- i) by_hop;
  let slot v = Schedule.raw_slot schedule v in
  (* Slot as seen by children: the sink advertises the virtual slot ∆. *)
  let view v = if v = sink then delta else slot v in
  let two_hop = Slpdas_wsn.Graph.two_hop g in
  (* Rows are sorted, so the partners [m > v] that phase 2 probes form a
     suffix; [above.(v)] is where it starts. *)
  let above =
    Array.init n (fun v ->
        let row = two_hop.(v) in
        let i = ref (Array.length row) in
        while !i > 0 && row.(!i - 1) > v do
          decr i
        done;
        !i)
  in
  let order_key = Array.init n (node_order_key ~salt) in
  (* [parent] may name any node, neighbour or not (repair accepts arbitrary
     arrays), so a slot change must also reach the nodes whose parent it
     is. *)
  let child_offsets, child = children parent in
  (* Dirty sets.  A visit reads only the slots of the node, its neighbours,
     its parent and (phase 2) its 2-hop neighbours, so with [pinned] pure a
     node none of those changed for since its last visit would assign
     nothing and is skipped.  Phase-1 flags are indexed by [by_hop]
     position and phase-2 flags by node, so each pass visits dirty nodes in
     full-sweep order; a mark behind the cursor is picked up by the next
     pass, when a full sweep would next reach that node.  Each pass thus
     makes the same assignments as a full sweep, and [changed] and the fuel
     bound count the same passes. *)
  let dirty1 = Array.make n true and dirty2 = Array.make n true in
  let changed = ref true in
  let assign u s =
    Schedule.assign schedule u s;
    changed := true;
    dirty1.(position.(u)) <- true;
    let neighbours = Slpdas_wsn.Graph.neighbours g u in
    for i = 0 to Array.length neighbours - 1 do
      dirty1.(position.(neighbours.(i))) <- true
    done;
    for i = child_offsets.(u) to child_offsets.(u + 1) - 1 do
      dirty1.(position.(child.(i))) <- true
    done;
    dirty2.(u) <- true;
    let row = two_hop.(u) in
    for i = 0 to Array.length row - 1 do
      dirty2.(row.(i)) <- true
    done
  in
  (* Child-below-parent repair, outwards from the sink (the update mode of
     Fig. 2: a child whose slot is not below its parent's re-lowers). *)
  let relower v =
    let sv = slot v in
    if v <> sink && sv <> none && not (pinned v) then begin
      let neighbours = Slpdas_wsn.Graph.neighbours g v in
      if strong then begin
        (* Strong DAS (Def. 2): below the chosen parent and every
           shortest-path parent (condition 3). *)
        let bound =
          match parent.(v) with
          | Some p ->
            let ps = view p in
            if ps = none then max_int else ps
          | None -> max_int
        in
        let bound =
          if hop.(v) > 0 then
            parents_floor schedule ~sink ~hop v neighbours 0 bound
          else bound
        in
        if bound < max_int && sv >= bound then assign v (bound - 1)
      end
      else if not (has_forwarder schedule ~sink sv neighbours 0) then begin
        (* Weak DAS (Def. 3): re-lower only when no neighbour at all
           transmits later — the least repair that keeps data flowing, and
           the most that can be done without erasing the decoy gradient
           Phase 3 planted (a blanket below-parent cascade would hand the
           attacker a fresh descent from the decoy end). *)
        match parent.(v) with
        | Some p ->
          let ps = view p in
          if ps <> none && sv >= ps then assign v (ps - 1)
        | None -> ()
      end
    end
  in
  (* [later a b]: [a] sorts after [b] by (hop, salted key, id), so [a] is
     the one that decrements when they collide. *)
  let later a b =
    match Int.compare hop.(a) hop.(b) with
    | 0 -> (
      match Int.compare order_key.(a) order_key.(b) with
      | 0 -> a > b
      | c -> c > 0)
    | c -> c > 0
  in
  (* 2-hop collision resolution: the node farther from the sink (ties by
     larger id) decrements, as in the process action of Fig. 2.  [sv] stays
     the slot read at the start of the visit even after [v] loses a
     collision: later probes compare against it, and that order is part of
     the schedule the oracle tests pin. *)
  let resolve v =
    let sv = slot v in
    if sv <> none then
      let row = two_hop.(v) in
      for i = above.(v) to Array.length row - 1 do
        let m = row.(i) in
        if slot m = sv then begin
          let loser = if later v m then v else m in
          let winner = if loser = v then m else v in
          if not (pinned loser) then assign loser (slot loser - 1)
          else if not (pinned winner) then assign winner (slot winner - 1)
        end
      done
  in
  let fuel = ref ((50 * n) + 100) in
  while !changed do
    decr fuel;
    if !fuel < 0 then failwith "Das_build: slot fixpoint did not converge";
    changed := false;
    for i = 0 to n - 1 do
      if dirty1.(i) then begin
        dirty1.(i) <- false;
        relower by_hop.(i)
      end
    done;
    for v = 0 to n - 1 do
      if dirty2.(v) then begin
        dirty2.(v) <- false;
        resolve v
      end
    done
  done

let repair ?(strong = false) ?(salt = 0) g ~schedule ~parent ~pinned =
  let hop = Slpdas_wsn.Graph.bfs_distances g (Schedule.sink schedule) in
  fixpoint ~strong ~salt g ~hop ~schedule ~parent ~pinned

(* How many of [neighbours] lie at hop [h]. *)
let count_at ~hop h neighbours =
  let k = ref 0 in
  for i = 0 to Array.length neighbours - 1 do
    if hop.(neighbours.(i)) = h then incr k
  done;
  !k

(* The [j]-th of [neighbours] at hop [h], counting from index [i]. *)
let rec nth_at ~hop h neighbours i j =
  if hop.(neighbours.(i)) <> h then nth_at ~hop h neighbours (i + 1) j
  else if j = 0 then neighbours.(i)
  else nth_at ~hop h neighbours (i + 1) (j - 1)

let build ?rng ?(delta = default_delta) g ~sink =
  let n = Slpdas_wsn.Graph.n g in
  let hop = Slpdas_wsn.Graph.bfs_distances g sink in
  let schedule = Schedule.create ~n ~sink in
  let parent = Array.make n None in
  (* Per-parent competitor ordering: the rank(i, Others[par]) of Fig. 2.
     Deterministic runs sort by id; seeded runs shuffle once per parent, at
     its first query, so all of a parent's children agree on their ranks,
     as they would when hearing the same broadcast.  An empty entry is one
     not yet queried: a queried parent has at least the querying child. *)
  let competitor_order = Array.make n [||] in
  let rank_under p v =
    if Array.length competitor_order.(p) = 0 then begin
      let neighbours = Slpdas_wsn.Graph.neighbours g p in
      let h = hop.(p) + 1 in
      let order = Array.make (count_at ~hop h neighbours) 0 in
      let k = ref 0 in
      for i = 0 to Array.length neighbours - 1 do
        let m = neighbours.(i) in
        if hop.(m) = h then begin
          order.(!k) <- m;
          incr k
        end
      done;
      (match rng with Some r -> Slpdas_util.Rng.shuffle r order | None -> ());
      competitor_order.(p) <- order
    end;
    let order = competitor_order.(p) in
    let i = ref 0 in
    while order.(!i) <> v do
      incr i
    done;
    !i
  in
  let max_hop = Array.fold_left max 0 hop in
  (* Reachable nodes by hop, each level in ascending id; unreachable ones
     (hop -1) are left out and stay unassigned. *)
  let level_offsets, by_level =
    group ~rows:(max_hop + 1) ~n (fun v -> hop.(v))
  in
  for i = level_offsets.(1) to Array.length by_level - 1 do
    let v = by_level.(i) in
    let neighbours = Slpdas_wsn.Graph.neighbours g v in
    (* A shortest-path parent, drawn as [Rng.choose] draws from the sorted
       list of them (no draw for a single candidate); unseeded runs take
       the least id. *)
    let j =
      match rng with
      | Some r ->
        let candidates = count_at ~hop (hop.(v) - 1) neighbours in
        if candidates > 1 then Slpdas_util.Rng.int r candidates else 0
      | None -> 0
    in
    let p = nth_at ~hop (hop.(v) - 1) neighbours 0 j in
    parent.(v) <- Some p;
    let pslot = if p = sink then delta else Schedule.raw_slot schedule p in
    assert (pslot <> Schedule.none) (* level d-1 is fully assigned *);
    Schedule.assign schedule v (pslot - rank_under p v - 1)
  done;
  let salt =
    match rng with
    | None -> 0
    | Some r -> 1 + Slpdas_util.Rng.int r 0x3FFF_FFFF
  in
  fixpoint ~delta ~salt ~strong:true g ~hop ~schedule ~parent
    ~pinned:(fun _ -> false);
  { schedule; parent; hop }

let schedule_length schedule =
  match (Schedule.min_slot schedule, Schedule.max_slot schedule) with
  | Some lo, Some hi -> hi - lo + 1
  | _ -> 0

let build_compact ?rng g ~sink =
  let n = Slpdas_wsn.Graph.n g in
  let hop = Slpdas_wsn.Graph.bfs_distances g sink in
  let schedule = Schedule.create ~n ~sink in
  let parent = Array.make n None in
  (* Parent choice as in [build]: a shortest-path parent per node. *)
  for v = 0 to n - 1 do
    if v <> sink && hop.(v) > 0 then begin
      let parents = Slpdas_wsn.Graph.shortest_path_parents g ~dist:hop v in
      match (rng, parents) with
      | _, [] -> ()
      | None, p :: _ -> parent.(v) <- Some p
      | Some r, parents -> parent.(v) <- Some (Slpdas_util.Rng.choose r parents)
    end
  done;
  (* Greedy first-fit, leaves first: slot(v) must exceed every already
     assigned strictly-deeper neighbour (so that all nodes having v on a
     shortest path transmit before it — strong condition 3) and be free in
     v's 2-hop neighbourhood (condition 4). *)
  let order =
    List.init n (fun v -> v)
    |> List.filter (fun v -> v <> sink && hop.(v) > 0)
    |> List.sort (fun a b ->
           match Int.compare hop.(b) hop.(a) with
           | 0 -> Int.compare a b
           | c -> c)
  in
  let order =
    match rng with
    | None -> order
    | Some r ->
      (* Shuffle within equal-hop groups only, preserving leaves-first. *)
      List.map (fun v -> ((-hop.(v), Slpdas_util.Rng.int r 1_000_000), v)) order
      |> List.sort
           (Slpdas_util.Order.pair Slpdas_util.Order.int_pair Int.compare)
      |> List.map snd
  in
  List.iter
    (fun v ->
      let lower_bound =
        Array.fold_left
          (fun acc w ->
            if hop.(w) = hop.(v) + 1 then begin
              match Schedule.slot schedule w with
              | Some s -> max acc (s + 1)
              | None -> acc
            end
            else acc)
          0
          (Slpdas_wsn.Graph.neighbours g v)
      in
      let taken =
        List.filter_map
          (fun m -> Schedule.slot schedule m)
          (Slpdas_wsn.Graph.two_hop_neighbourhood g v)
      in
      (* Bitset probe instead of List.mem per candidate slot: the two-hop
         neighbourhood of a dense grid holds a dozen assigned slots, and the
         linear scan per probe made this loop quadratic in it.  Capacity
         covers every taken slot plus one past the largest, which is always
         free. *)
      let cap =
        List.fold_left (fun acc s -> max acc (s + 2)) (lower_bound + 2) taken
      in
      let occupied = Slpdas_util.Bitset.create cap in
      List.iter (fun s -> Slpdas_util.Bitset.add occupied s) taken;
      let rec first_free i =
        if i < cap && Slpdas_util.Bitset.mem occupied i then first_free (i + 1)
        else i
      in
      Schedule.assign schedule v (first_free lower_bound))
    order;
  { schedule; parent; hop }
