(* Differential oracle for [Das_build]: the pass-based slot fixpoint that
   re-sweeps every node in both phases on every pass, with the [build]
   construction that feeds it.  [Das_build.fixpoint] visits only nodes whose
   inputs changed and must reproduce these schedules byte for byte
   (test_core.ml, "das fixpoint oracle"). *)

module Schedule = Slpdas_core.Schedule
module Das_build = Slpdas_core.Das_build

type result = Das_build.result = {
  schedule : Schedule.t;
  parent : int option array;
  hop : int array;
}

let default_delta = Das_build.default_delta

let node_order_key = Das_build.node_order_key

(* Slot as seen by children: the sink advertises the virtual slot ∆. *)
let slot_view schedule ~delta v =
  if v = Schedule.sink schedule then Some delta else Schedule.slot schedule v

let fixpoint ?(delta = default_delta) ?(salt = 0) ~strong g ~schedule ~parent
    ~pinned =
  let n = Slpdas_wsn.Graph.n g in
  let sink = Schedule.sink schedule in
  let hop = Slpdas_wsn.Graph.bfs_distances g sink in
  let by_hop =
    List.sort
      (fun a b ->
        match Int.compare hop.(a) hop.(b) with
        | 0 -> Int.compare a b
        | c -> c)
      (List.init n (fun v -> v))
  in
  (* Pass-invariant per-node rows, computed once: [hop] never changes inside
     the fixpoint, yet deep grids run hundreds of passes, and rebuilding the
     shortest-path-parent lists and two-hop neighbourhoods on every visit
     dominated wall-clock beyond ~10⁵ nodes.  Row contents and order are
     exactly what the per-visit calls produced. *)
  let sp_parents =
    Array.init n (fun v ->
        Array.of_list (Slpdas_wsn.Graph.shortest_path_parents g ~dist:hop v))
  in
  let two_hop =
    Array.init n (fun v ->
        Array.of_list (Slpdas_wsn.Graph.two_hop_neighbourhood g v))
  in
  let fuel = ref ((50 * n) + 100) in
  let changed = ref true in
  while !changed do
    decr fuel;
    if !fuel < 0 then failwith "Das_build: slot fixpoint did not converge";
    changed := false;
    (* Child-below-parent repair, outwards from the sink (the update mode of
       Fig. 2: a child whose slot is not below its parent's re-lowers).  In
       strong mode the bound is the minimum over every shortest-path parent
       (condition 3 of Def. 2), not just the chosen one. *)
    List.iter
      (fun v ->
        if v <> sink && not (pinned v) then begin
          match Schedule.slot schedule v with
          | None -> ()
          | Some sv ->
            if strong then begin
              (* Strong DAS (Def. 2): below every shortest-path parent.  The
                 minimum is folded directly — no bounds list — but over the
                 same values in the same order as before. *)
              let bound = ref max_int in
              let consider = function
                | Some s -> if s < !bound then bound := s
                | None -> ()
              in
              (match parent.(v) with
              | Some p -> consider (slot_view schedule ~delta p)
              | None -> ());
              Array.iter
                (fun m ->
                  if m <> sink then consider (Schedule.slot schedule m))
                sp_parents.(v);
              if !bound < max_int && sv >= !bound then begin
                Schedule.assign schedule v (!bound - 1);
                changed := true
              end
            end
            else begin
              (* Weak DAS (Def. 3): re-lower only when no neighbour at all
                 transmits later — the least repair that keeps data flowing,
                 and the most that can be done without erasing the decoy
                 gradient Phase 3 planted (a blanket below-parent cascade
                 would hand the attacker a fresh descent from the decoy
                 end). *)
              let has_forwarder =
                Array.exists
                  (fun m ->
                    m = sink
                    ||
                    match Schedule.slot schedule m with
                    | Some ms -> ms > sv
                    | None -> false)
                  (Slpdas_wsn.Graph.neighbours g v)
              in
              if not has_forwarder then begin
                match
                  Option.bind parent.(v) (slot_view schedule ~delta)
                with
                | Some ps when sv >= ps ->
                  Schedule.assign schedule v (ps - 1);
                  changed := true
                | Some _ | None -> ()
              end
            end
        end)
      by_hop;
    (* 2-hop collision resolution: the node farther from the sink (ties by
       larger id) decrements, as in the process action of Fig. 2. *)
    for v = 0 to n - 1 do
      match Schedule.slot schedule v with
      | None -> ()
      | Some sv ->
        Array.iter
          (fun m ->
            if m > v && Schedule.slot schedule m = Some sv then begin
              let key u = (hop.(u), node_order_key ~salt u, u) in
              let loser, winner = if key v > key m then (v, m) else (m, v) in
              let target =
                if not (pinned loser) then Some loser
                else if not (pinned winner) then Some winner
                else None
              in
              match target with
              | Some t ->
                Schedule.assign schedule t (Schedule.slot_exn schedule t - 1);
                changed := true
              | None -> ()
            end)
          two_hop.(v)
    done
  done

let repair ?(strong = false) ?(salt = 0) g ~schedule ~parent ~pinned =
  fixpoint ~strong ~salt g ~schedule ~parent ~pinned

let build ?rng ?(delta = default_delta) g ~sink =
  let n = Slpdas_wsn.Graph.n g in
  let hop = Slpdas_wsn.Graph.bfs_distances g sink in
  let schedule = Schedule.create ~n ~sink in
  let parent = Array.make n None in
  (* Per-parent competitor ordering: the rank(i, Others[par]) of Fig. 2.
     Deterministic runs sort by id; seeded runs shuffle once per parent so
     all of a parent's children agree on their ranks, as they would when
     hearing the same broadcast. *)
  let competitor_order = Hashtbl.create 64 in
  let rank_under p v =
    let order =
      match Hashtbl.find_opt competitor_order p with
      | Some order -> order
      | None ->
        let competitors =
          Array.to_list (Slpdas_wsn.Graph.neighbours g p)
          |> List.filter (fun m -> hop.(m) = hop.(p) + 1)
        in
        let order =
          match rng with
          | None -> competitors
          | Some r -> Slpdas_util.Rng.shuffle_list r competitors
        in
        Hashtbl.replace competitor_order p order;
        order
    in
    let rec index i = function
      | [] -> invalid_arg "Das_build.rank_under: node not a competitor"
      | m :: rest -> if m = v then i else index (i + 1) rest
    in
    index 0 order
  in
  let max_hop = Array.fold_left max 0 hop in
  (* Hop buckets, built in one descending sweep so each level lists its
     nodes in ascending id — the order the per-level [List.filter] over
     [0 .. n-1] produced, without the O(n · depth) rescans. *)
  let levels = Array.make (max_hop + 1) [] in
  for v = n - 1 downto 0 do
    if hop.(v) >= 0 then levels.(hop.(v)) <- v :: levels.(hop.(v))
  done;
  for d = 1 to max_hop do
    let level = levels.(d) in
    List.iter
      (fun v ->
        let parents = Slpdas_wsn.Graph.shortest_path_parents g ~dist:hop v in
        let p =
          match (rng, parents) with
          | _, [] -> assert false (* hop.(v) = d >= 1 guarantees a parent *)
          | None, p :: _ -> p
          | Some r, parents -> Slpdas_util.Rng.choose r parents
        in
        parent.(v) <- Some p;
        let pslot =
          match slot_view schedule ~delta p with
          | Some s -> s
          | None -> assert false (* level d-1 is fully assigned *)
        in
        Schedule.assign schedule v (pslot - rank_under p v - 1))
      level
  done;
  let salt =
    match rng with
    | None -> 0
    | Some r -> 1 + Slpdas_util.Rng.int r 0x3FFF_FFFF
  in
  fixpoint ~delta ~salt ~strong:true g ~schedule ~parent ~pinned:(fun _ -> false);
  { schedule; parent; hop }

