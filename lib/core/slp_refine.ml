type result = {
  refined : Schedule.t;
  search_path : int list;
  start_node : int;
  change_path : int list;
}

module Int_set = Set.Make (Int)

let choose rng = function
  | [] -> None
  | candidates ->
    begin match rng with
    | None -> Some (List.fold_left min (List.hd candidates) candidates)
    | Some r -> Some (Slpdas_util.Rng.choose r candidates)
    end

(* Slot as heard by neighbours: the sink advertises the virtual slot ∆. *)
let view schedule ~delta v =
  if v = Schedule.sink schedule then delta else Schedule.raw_slot schedule v

(* min{Ninfo[j].slot | j ∈ myN} ∪ {slot}: the audible slot floor around
   [v]. *)
let neighbourhood_min g schedule ~delta v =
  let floor = ref (view schedule ~delta v) in
  let neighbours = Slpdas_wsn.Graph.neighbours g v in
  for i = 0 to Array.length neighbours - 1 do
    let s = view schedule ~delta neighbours.(i) in
    if s <> Schedule.none && (!floor = Schedule.none || s < !floor) then
      floor := s
  done;
  if !floor = Schedule.none then None else Some !floor

(* The lowest-slotted of [v]'s children in the {!Das_build.children} table,
   whose rows ascend in id, so ties go to the least id. *)
let min_slot_child schedule offsets members v =
  let best = ref (-1) and best_slot = ref max_int in
  for i = offsets.(v) to offsets.(v + 1) - 1 do
    let c = members.(i) in
    let s = Schedule.raw_slot schedule c in
    if s <> Schedule.none && (!best < 0 || s < !best_slot) then begin
      best := c;
      best_slot := s
    end
  done;
  if !best < 0 then None else Some !best

let refine ?rng ?(gap = 1) g ~das ~search_distance ~change_length =
  if search_distance < 1 then invalid_arg "Slp_refine: search_distance < 1";
  if change_length < 1 then invalid_arg "Slp_refine: change_length < 1";
  if gap < 1 then invalid_arg "Slp_refine: gap < 1";
  let delta = Das_build.default_delta in
  let schedule = Schedule.copy das.Das_build.schedule in
  let parent = das.Das_build.parent in
  let sink = Schedule.sink schedule in
  let child_offsets, child = Das_build.children parent in
  let children v =
    let first = child_offsets.(v) in
    List.init (child_offsets.(v + 1) - first) (fun i -> child.(first + i))
  in
  (* Phase 2: descend minimum-slot children for [search_distance] hops. *)
  let rec descend cur remaining visited path =
    if remaining = 0 then Some (cur, visited, path)
    else begin
      let next =
        match min_slot_child schedule child_offsets child cur with
        | Some c -> Some c
        | None ->
          (* No children: lowest-slotted neighbour off the path. *)
          Slpdas_wsn.Graph.neighbour_list g cur
          |> List.filter (fun v ->
                 (not (Int_set.mem v visited)) && Some v <> parent.(cur))
          |> List.filter_map (fun v ->
                 Option.map (fun s -> (s, v)) (Schedule.slot schedule v))
          |> List.sort Slpdas_util.Order.int_pair
          |> (function [] -> None | (_, v) :: _ -> Some v)
      in
      match next with
      | None -> None
      | Some next ->
        descend next (remaining - 1) (Int_set.add next visited) (next :: path)
    end
  in
  let alternates visited v =
    Slpdas_wsn.Graph.shortest_path_parents g ~dist:das.Das_build.hop v
    |> List.filter (fun p -> Some p <> parent.(v) && not (Int_set.mem p visited))
  in
  (* After [search_distance] hops, keep forwarding until some node has an
     alternate potential parent (the ttl = 0 branch of Fig. 3). *)
  let rec find_start cur visited path fuel =
    if fuel = 0 then None
    else if alternates visited cur <> [] then Some (cur, visited, path)
    else begin
      (* Fig. 3's ttl = 0 forwarding: a child if any, else a non-parent
         neighbour.  Prefer unvisited nodes so the deterministic mode does
         not ricochet; fall back to visited ones (the figure permits it)
         under the fuel bound. *)
      let unvisited = List.filter (fun c -> not (Int_set.mem c visited)) in
      let neighbours_pool =
        Slpdas_wsn.Graph.neighbour_list g cur
        |> List.filter (fun v -> Some v <> parent.(cur))
      in
      let pool =
        match unvisited (children cur) with
        | [] ->
          begin match unvisited neighbours_pool with
          | [] -> neighbours_pool
          | vs -> vs
          end
        | cs -> cs
      in
      match choose rng pool with
      | None -> None
      | Some next ->
        find_start next (Int_set.add next visited) (next :: path) (fuel - 1)
    end
  in
  match descend sink search_distance (Int_set.singleton sink) [ sink ] with
  | None -> None
  | Some (reached, visited, path) ->
    begin match
      find_start reached visited path (Slpdas_wsn.Graph.n g)
    with
    | None -> None
    | Some (start_node, visited, path) ->
      let search_path = List.rev path in
      (* Phase 3: walk the decoy chain. *)
      begin match choose rng (alternates visited start_node) with
      | None -> None
      | Some first_target ->
        let changed = ref [] in
        let rec chain cur target visited remaining =
          match neighbourhood_min g schedule ~delta cur with
          | None -> ()
          | Some base ->
            Schedule.assign schedule target (base - gap);
            changed := target :: !changed;
            let visited = Int_set.add target visited in
            if remaining > 1 then begin
              let pool =
                Slpdas_wsn.Graph.neighbour_list g target
                |> List.filter (fun v ->
                       (not (Int_set.mem v visited))
                       && Some v <> parent.(target)
                       && v <> sink)
              in
              match choose rng pool with
              | None -> ()
              | Some next -> chain target next visited (remaining - 1)
            end
        in
        chain start_node first_target visited change_length;
        let change_path = List.rev !changed in
        let pinned =
          let set = Int_set.of_list change_path in
          fun v -> Int_set.mem v set
        in
        let salt =
          match rng with
          | None -> 0
          | Some r -> 1 + Slpdas_util.Rng.int r 0x3FFF_FFFF
        in
        Das_build.repair ~salt g ~schedule ~parent ~pinned;
        Some { refined = schedule; search_path; start_node; change_path }
      end
    end
