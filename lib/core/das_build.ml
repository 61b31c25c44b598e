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
  else Slpdas_util.Rng.first_bits62 ((salt * 2_654_435_761) lxor (v * 40_503))

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
  group ~rows:n ~n (fun v ->
      match parent.(v) with
      | Some p when p < 0 || p >= n ->
        invalid_arg "Das_build.children: parent out of range"
      | Some p -> p
      | None -> -1)

(* The slot fixpoint's state: the schedule's live slot store, which it
   updates in place, and every per-node input a visit reads, each copied
   into an array once so that a visit makes no call through a closure or
   into another module.  Every index the visits use is a node of the
   graph (or its position in [by_hop]): [fixpoint] checks that the
   schedule, [parent] and [hop] cover exactly the graph's nodes and that
   every parent is one of them, so the visits read and write without
   bounds checks. *)
type fix = {
  sink : int;
  delta : int;  (* the virtual slot the sink advertises *)
  strong : bool;
  slots : int array;  (* [Schedule.slots_for_update] *)
  adj : int array array;
  two_hop : int array array;  (* the graph's shared rows *)
  (* Where the partners [m > v] start in [two_hop.(v)]: rows are sorted,
     so they form a suffix, and the partners [m < v] the prefix before
     it. *)
  above : int array;
  hop : int array;
  order_key : int array;
  parent : int array;  (* [-1] for none *)
  pinned : Bytes.t;  (* ['\001'] for a pinned node *)
  position : int array;  (* node -> index in the phase-1 visit order *)
  child_offsets : int array;
  child : int array;
  dirty1 : Bytes.t;  (* by phase-1 position *)
  dirty2 : Bytes.t;  (* by node *)
  mutable changed : bool;
}

external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"
external row : int array array -> int -> int array = "%array_unsafe_get"

let mark flags i = Bytes.unsafe_set flags i '\001'

let is_set flags i = Bytes.unsafe_get flags i <> '\000'

(* Slot as seen by children: the sink advertises the virtual slot ∆. *)
let view st v = if v = st.sink then st.delta else st.slots.!(v)

(* [u] takes slot [s].  Marks every visit that reads [u]'s slot: its own
   and its neighbours' and children's relower, its own resolve, and the
   resolve of each 2-hop partner [m < u] — a resolve probes only partners
   above it, so no other visit reads [u]'s slot. *)
let set st u s =
  st.slots.!(u) <- s;
  st.changed <- true;
  let dirty1 = st.dirty1 and position = st.position in
  mark dirty1 position.!(u);
  let neighbours = row st.adj u in
  for i = 0 to Array.length neighbours - 1 do
    mark dirty1 position.!(neighbours.!(i))
  done;
  for i = st.child_offsets.!(u) to st.child_offsets.!(u + 1) - 1 do
    mark dirty1 position.!(st.child.!(i))
  done;
  mark st.dirty2 u;
  let partners = row st.two_hop u in
  for i = 0 to st.above.!(u) - 1 do
    mark st.dirty2 partners.!(i)
  done

(* Smallest assigned slot among [v]'s shortest-path parents other than the
   sink, never above [bound]. *)
let parents_floor st v bound =
  let neighbours = row st.adj v and up = st.hop.!(v) - 1 in
  let bound = ref bound in
  for i = 0 to Array.length neighbours - 1 do
    let m = neighbours.!(i) in
    if m <> st.sink && st.hop.!(m) = up then begin
      let s = st.slots.!(m) in
      if s <> Schedule.none && s < !bound then bound := s
    end
  done;
  !bound

(* Whether some neighbour of [v] is the sink or transmits after slot
   [sv]. *)
let has_forwarder st v sv =
  let neighbours = row st.adj v in
  let i = ref 0 and found = ref false in
  while (not !found) && !i < Array.length neighbours do
    let m = neighbours.!(!i) in
    if m = st.sink || st.slots.!(m) > sv then found := true;
    incr i
  done;
  !found

(* Child-below-parent repair, outwards from the sink (the update mode of
   Fig. 2: a child whose slot is not below its parent's re-lowers). *)
let relower st v =
  let sv = st.slots.!(v) in
  if v <> st.sink && sv <> Schedule.none && not (is_set st.pinned v) then begin
    let p = st.parent.!(v) in
    if st.strong then begin
      (* Strong DAS (Def. 2): below the chosen parent and every
         shortest-path parent (condition 3). *)
      let bound =
        if p < 0 then max_int
        else
          let ps = view st p in
          if ps = Schedule.none then max_int else ps
      in
      let bound = if st.hop.!(v) > 0 then parents_floor st v bound else bound in
      if bound < max_int && sv >= bound then set st v (bound - 1)
    end
    else if p >= 0 && not (has_forwarder st v sv) then begin
      (* Weak DAS (Def. 3): re-lower only when no neighbour at all
         transmits later — the least repair that keeps data flowing, and
         the most that can be done without erasing the decoy gradient
         Phase 3 planted (a blanket below-parent cascade would hand the
         attacker a fresh descent from the decoy end). *)
      let ps = view st p in
      if ps <> Schedule.none && sv >= ps then set st v (ps - 1)
    end
  end

(* [later st a b]: [a] sorts after [b] by (hop, salted key, id), so [a] is
   the one that decrements when they collide. *)
let later st a b =
  let ha = st.hop.!(a) and hb = st.hop.!(b) in
  if ha <> hb then ha > hb
  else begin
    let ka = st.order_key.!(a) and kb = st.order_key.!(b) in
    if ka <> kb then ka > kb else a > b
  end

(* 2-hop collision resolution: the node farther from the sink (ties by
   larger id) decrements, as in the process action of Fig. 2.  [sv] stays
   the slot read at the start of the visit even after [v] loses a
   collision: later probes compare against it, and that order is part of
   the schedule the oracle tests pin. *)
let resolve st v =
  let slots = st.slots in
  let sv = slots.!(v) in
  if sv <> Schedule.none then begin
    let partners = row st.two_hop v in
    for i = st.above.!(v) to Array.length partners - 1 do
      let m = partners.!(i) in
      if slots.!(m) = sv then begin
        let loser = if later st v m then v else m in
        let winner = if loser = v then m else v in
        if not (is_set st.pinned loser) then set st loser (slots.!(loser) - 1)
        else if not (is_set st.pinned winner) then
          set st winner (slots.!(winner) - 1)
      end
    done
  end

(* [hop] is the hop distance from the schedule's sink. *)
let fixpoint ?(delta = default_delta) ?(salt = 0) ~strong g ~hop ~schedule
    ~parent ~pinned =
  let n = Slpdas_wsn.Graph.n g in
  if Schedule.n schedule <> n || Array.length parent <> n
     || Array.length hop <> n
  then invalid_arg "Das_build: schedule, parent array and graph sizes differ";
  (* Phase-1 visit order: by hop, then id (unreachable nodes, hop -1,
     first). *)
  let max_hop = Array.fold_left Int.max 0 hop in
  let _, by_hop = group ~rows:(max_hop + 2) ~n (fun v -> hop.(v) + 1) in
  let position = Array.make n 0 in
  Array.iteri (fun i v -> position.(v) <- i) by_hop;
  let two_hop = Slpdas_wsn.Graph.two_hop g in
  let above =
    Array.init n (fun v ->
        let partners = two_hop.(v) in
        let i = ref (Array.length partners) in
        while !i > 0 && partners.(!i - 1) > v do
          decr i
        done;
        !i)
  in
  (* [parent] may name any node, neighbour or not (repair accepts arbitrary
     arrays), so a slot change must also reach the nodes whose parent it
     is.  [children] also rejects a parent outside the graph. *)
  let child_offsets, child = children parent in
  let st =
    {
      sink = Schedule.sink schedule;
      delta;
      strong;
      slots = Schedule.slots_for_update schedule;
      adj = Array.init n (Slpdas_wsn.Graph.neighbours g);
      two_hop;
      above;
      hop;
      order_key = Array.init n (node_order_key ~salt);
      parent = Array.map (function Some p -> p | None -> -1) parent;
      pinned = Bytes.init n (fun v -> if pinned v then '\001' else '\000');
      position;
      child_offsets;
      child;
      (* Dirty sets.  A visit reads only the slots of the node, its
         neighbours, its parent and (phase 2) its 2-hop partners above it,
         so a node none of those changed for since its last visit would
         assign nothing and is skipped.  Phase-1 flags are indexed by
         [by_hop] position and phase-2 flags by node, so each pass visits
         dirty nodes in full-sweep order; a mark behind the cursor is
         picked up by the next pass, when a full sweep would next reach
         that node.  Each pass thus makes the same assignments as a full
         sweep, and [changed] and the fuel bound count the same passes. *)
      dirty1 = Bytes.make n '\001';
      dirty2 = Bytes.make n '\001';
      changed = true;
    }
  in
  let fuel = ref ((50 * n) + 100) in
  while st.changed do
    decr fuel;
    if !fuel < 0 then failwith "Das_build: slot fixpoint did not converge";
    st.changed <- false;
    for i = 0 to n - 1 do
      if is_set st.dirty1 i then begin
        Bytes.set st.dirty1 i '\000';
        relower st by_hop.(i)
      end
    done;
    for v = 0 to n - 1 do
      if is_set st.dirty2 v then begin
        Bytes.set st.dirty2 v '\000';
        resolve st v
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
