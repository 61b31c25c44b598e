module Graph = Slpdas_wsn.Graph
module Topology = Slpdas_wsn.Topology

type cell = {
  id : int;
  nodes : int array;
  topology : Topology.t;
  ports_off : int array;
  ports_pos : int array;
  ports_target : int array;
  boundary_nodes : int;
}

type plan = {
  base : Topology.t;
  cells_x : int;
  cells_y : int;
  cells : cell array;
  cut_links : int;
  cell_of_node : int array;
  local_index : int array;
}

let plan ~cells_x ~cells_y (base : Topology.t) =
  if cells_x < 1 || cells_y < 1 then
    invalid_arg "Shard.plan: cell grid must be at least 1x1";
  let g = base.Topology.graph in
  let n = Graph.n g in
  let positions = base.Topology.positions in
  (* Bounding box of the deployment; a degenerate axis puts everything in
     cell 0 of that axis. *)
  let min_x = ref infinity and max_x = ref neg_infinity in
  let min_y = ref infinity and max_y = ref neg_infinity in
  Array.iter
    (fun (x, y) ->
      if x < !min_x then min_x := x;
      if x > !max_x then max_x := x;
      if y < !min_y then min_y := y;
      if y > !max_y then max_y := y)
    positions;
  let axis ~cells ~lo ~hi coord =
    let span = hi -. lo in
    if span <= 0.0 then 0
    else
      min (cells - 1)
        (int_of_float (float_of_int cells *. ((coord -. lo) /. span)))
  in
  let bin_of_node = Array.make (max n 1) 0 in
  for v = 0 to n - 1 do
    let x, y = positions.(v) in
    let cx = axis ~cells:cells_x ~lo:!min_x ~hi:!max_x x in
    let cy = axis ~cells:cells_y ~lo:!min_y ~hi:!max_y y in
    bin_of_node.(v) <- (cy * cells_x) + cx
  done;
  let num_bins = cells_x * cells_y in
  (* Member lists per cell, ascending global id (one ascending sweep). *)
  let counts = Array.make num_bins 0 in
  for v = 0 to n - 1 do
    counts.(bin_of_node.(v)) <- counts.(bin_of_node.(v)) + 1
  done;
  let members = Array.init num_bins (fun c -> Array.make counts.(c) 0) in
  let fill = Array.make num_bins 0 in
  for v = 0 to n - 1 do
    let c = bin_of_node.(v) in
    members.(c).(fill.(c)) <- v;
    fill.(c) <- fill.(c) + 1
  done;
  (* Global -> local index within its own cell.  Ascending fill order makes
     the mapping monotone per cell, so filtered adjacency rows stay
     sorted. *)
  let local_of = Array.make (max n 1) 0 in
  Array.iter
    (fun nodes -> Array.iteri (fun i v -> local_of.(v) <- i) nodes)
    members;
  let cut_links = ref 0 in
  let build_cell next_id nodes =
    let cn = Array.length nodes in
    let offsets = Array.make (cn + 1) 0 in
    let ports_off = Array.make (cn + 1) 0 in
    Array.iteri
      (fun i v ->
        let deg = ref 0 and cut = ref 0 in
        Array.iter
          (fun w ->
            if bin_of_node.(w) = bin_of_node.(v) then incr deg
            else begin
              incr cut;
              if v < w then incr cut_links
            end)
          (Graph.neighbours g v);
        offsets.(i + 1) <- offsets.(i) + !deg;
        ports_off.(i + 1) <- ports_off.(i) + !cut)
      nodes;
    let targets = Array.make offsets.(cn) 0 in
    let ports_pos = Array.make ports_off.(cn) 0 in
    let ports_target = Array.make ports_off.(cn) 0 in
    let pos = ref 0 and ppos = ref 0 in
    let boundary_nodes = ref 0 in
    Array.iter
      (fun v ->
        let before = !ppos in
        (* [j] indexes v's full global adjacency row; cut neighbours keep
           that position so a coupled engine can interleave local rows and
           ports back into the exact global row order. *)
        Array.iteri
          (fun j w ->
            if bin_of_node.(w) = bin_of_node.(v) then begin
              targets.(!pos) <- local_of.(w);
              incr pos
            end
            else begin
              ports_pos.(!ppos) <- j;
              ports_target.(!ppos) <- w;
              incr ppos
            end)
          (Graph.neighbours g v);
        if !ppos > before then incr boundary_nodes)
      nodes;
    let graph = Graph.of_csr ~n:cn ~offsets ~targets in
    (* A cell is a region of one deployment, not a deployment of its own:
       no engine reads its source or sink, so both name local node 0. *)
    {
      id = next_id;
      nodes;
      topology =
        {
          Topology.name = Printf.sprintf "%s/cell-%d" base.Topology.name next_id;
          graph;
          positions = Array.map (fun v -> positions.(v)) nodes;
          source = 0;
          sink = 0;
        };
      ports_off;
      ports_pos;
      ports_target;
      boundary_nodes = !boundary_nodes;
    }
  in
  let cells = ref [] in
  let compact = Array.make num_bins (-1) in
  let next_id = ref 0 in
  for c = 0 to num_bins - 1 do
    if counts.(c) > 0 then begin
      compact.(c) <- !next_id;
      cells := build_cell !next_id members.(c) :: !cells;
      incr next_id
    end
  done;
  let cell_of_node = Array.make (max n 1) 0 in
  for v = 0 to n - 1 do
    cell_of_node.(v) <- compact.(bin_of_node.(v))
  done;
  {
    base;
    cells_x;
    cells_y;
    cells = Array.of_list (List.rev !cells);
    cut_links = !cut_links;
    cell_of_node;
    local_index = local_of;
  }

let boundary_nodes plan =
  Array.fold_left (fun acc c -> acc + c.boundary_nodes) 0 plan.cells

(* ------------------------------------------------------------------ *)
(* Coupled runs: conservative lookahead windows over cut edges        *)
(* ------------------------------------------------------------------ *)

(* Per-node RNG lanes, split off the master seed in global node order.  The
   same construction serves the coupled run and its sequential twin, so
   node [v]'s draw stream is identical in both. *)
let lanes_of_seed ~n seed =
  let master = Slpdas_util.Rng.create seed in
  Array.init n (fun _ -> Slpdas_util.Rng.split master)

(* The coupled engine never draws from the engine-level rng (every draw
   comes from a lane); the argument exists only to satisfy [create]. *)
let unused_rng () = Slpdas_util.Rng.create 0

let sequential_engine ?(impl = Engine.Fast) ~topology ~link ~seed ~program () =
  let n = Graph.n topology.Topology.graph in
  let coupling =
    {
      Engine.global_ids = Array.init n (fun v -> v);
      lanes = lanes_of_seed ~n seed;
      ports_off = Array.make (n + 1) 0;
      ports_pos = [||];
      ports_target = [||];
      ports_x = [||];
      ports_y = [||];
      send = (fun ~at:_ ~src:_ ~sseq:_ ~target:_ ~msg:_ -> ());
    }
  in
  Engine.create ~impl ~coupling ~topology ~link ~rng:(unused_rng ()) ~program ()

let run_coupled ?domains ?(impl = Engine.Fast) ?arm ?monitor ?inspect plan
    ~link ~seed ~program ~until =
  let n = Graph.n plan.base.Topology.graph in
  let positions = plan.base.Topology.positions in
  let lanes_all = lanes_of_seed ~n seed in
  let nc = Array.length plan.cells in
  (* One mailbox per directed cell pair with at least one cut arc, created
     up front so window workers never allocate shared structure. *)
  let boxes = Array.make (nc * nc) None in
  Array.iter
    (fun cell ->
      Array.iter
        (fun target ->
          let k = (cell.id * nc) + plan.cell_of_node.(target) in
          match boxes.(k) with
          | Some _ -> ()
          | None -> boxes.(k) <- Some (Mailbox.create ()))
        cell.ports_target)
    plan.cells;
  let send_of cell ~at ~src ~sseq ~target ~msg =
    match boxes.((cell.id * nc) + plan.cell_of_node.(target)) with
    | Some box ->
      Mailbox.push box ~at ~src ~sseq ~node:plan.local_index.(target) ~msg
    | None -> assert false
  in
  let engines =
    Array.map
      (fun cell ->
        let lanes = Array.map (fun v -> lanes_all.(v)) cell.nodes in
        let np = Array.length cell.ports_target in
        let ports_x = Array.make np 0.0 and ports_y = Array.make np 0.0 in
        Array.iteri
          (fun i w ->
            let x, y = positions.(w) in
            ports_x.(i) <- x;
            ports_y.(i) <- y)
          cell.ports_target;
        Engine.create ~impl
          ~coupling:
            {
              Engine.global_ids = cell.nodes;
              lanes;
              ports_off = cell.ports_off;
              ports_pos = cell.ports_pos;
              ports_target = cell.ports_target;
              ports_x;
              ports_y;
              send = send_of cell;
            }
          ~topology:cell.topology ~link ~rng:(unused_rng ()) ~program ())
      plan.cells
  in
  (match monitor with
  | Some f -> Array.iteri (fun i e -> f ~cell:plan.cells.(i) e) engines
  | None -> ());
  (match arm with
  | Some f -> Array.iteri (fun i e -> f ~cell:plan.cells.(i) e) engines
  | None -> ());
  (* Barrier exchange: ship every buffered boundary delivery into its
     destination cell's queue.  Deterministic (cell order, then
     (time, src, sseq) within each box), though the stable heap order makes
     ingestion order immaterial anyway.  The (engine, box) pairs are
     flattened once, dst-major then src order, so the per-window sweep
     touches only real cut-edge pairs instead of scanning the nc*nc grid
     (the ingest closure is hoisted with them — the sweep runs thousands
     of times per simulated second and must not allocate). *)
  let drain_pairs =
    let acc = ref [] in
    for dst = nc - 1 downto 0 do
      let e = engines.(dst) in
      let ingest ~at ~src ~sseq ~node ~msg =
        Engine.ingest_delivery e ~at ~src ~sseq ~node ~msg
      in
      for src = nc - 1 downto 0 do
        match boxes.((src * nc) + dst) with
        | Some box -> acc := (box, ingest) :: !acc
        | None -> ()
      done
    done;
    Array.of_list !acc
  in
  let drain_boxes () =
    Array.iter (fun (box, ingest) -> Mailbox.drain box ingest) drain_pairs
  in
  (* Boot effects broadcast at time 0; their boundary deliveries must be in
     place before the first window. *)
  drain_boxes ();
  let window = Engine.propagation_delay in
  Slpdas_util.Pool.with_pool ?domains (fun pool ->
      let stop = Atomic.make 0.0 in
      (* The round runs over a per-window {e active prefix} of [slots]: only
         engines whose next event falls inside the window.  A wavefront only
         crosses a handful of cells at a time, so most windows most cells
         have nothing to do — skipping them is exact ([run_window] on an
         idle engine is a single heap peek) and keeps chunk claims, and on
         oversubscribed hosts scheduler churn, proportional to real work. *)
      let slots = Array.init nc (fun i -> i) in
      let nexts = Array.make nc infinity in
      let round =
        Slpdas_util.Pool.rounds pool ~chunk:1
          (fun i ->
            Engine.run_window engines.(i) ~stop_before:(Atomic.get stop)
              ~deadline:until)
          slots
      in
      let next_time () =
        let acc = ref infinity in
        Array.iteri
          (fun i e ->
            let at =
              match Engine.next_event_time e with
              | Some at -> at
              | None -> infinity
            in
            nexts.(i) <- at;
            if at < !acc then acc := at)
          engines;
        !acc
      in
      (* A monitor or harness callback that calls [Engine.stop] on a cell
         ends the run at the barrier of the window it stopped in: a halted
         cell's [run_window] returns at once, so its pending events would
         otherwise keep [next_time] below [until] forever. *)
      let rec loop () =
        let t_next =
          if Array.exists Engine.stopped engines then infinity else next_time ()
        in
        if t_next <= until then begin
          (* Conservative horizon: nothing processed in
             [t_next, t_next + window) can influence another cell before
             t_next + window, because boundary deliveries arrive exactly one
             propagation delay after their broadcast. *)
          let horizon = t_next +. window in
          Atomic.set stop horizon;
          let na = ref 0 in
          for i = 0 to nc - 1 do
            if nexts.(i) < horizon then begin
              slots.(!na) <- i;
              incr na
            end
          done;
          if !na = 1 then
            (* A lone active cell gains nothing from the pool; run it on the
               coordinator and skip the worker wake-up entirely. *)
            Engine.run_window engines.(slots.(0)) ~stop_before:horizon
              ~deadline:until
          else Slpdas_util.Pool.run_round_prefix round !na;
          drain_boxes ();
          loop ()
        end
      in
      loop ());
  if not (Array.exists Engine.stopped engines) then
    Array.iter (fun e -> Engine.advance_to e until) engines;
  (match inspect with
  | Some f -> Array.iteri (fun i e -> f ~cell:plan.cells.(i) e) engines
  | None -> ());
  let per_cell = Array.map Engine.counters engines in
  let merged = Event.merge_all (Array.to_list per_cell) in
  (* The merge sums the per-cell [runs] fields, but a coupled execution is
     one run of one deployment — normalise so the merged record (and its
     JSON) is byte-identical to the sequential engine's. *)
  let merged =
    if Array.length per_cell > 0 then { merged with Event.runs = 1 }
    else merged
  in
  (per_cell, merged)
