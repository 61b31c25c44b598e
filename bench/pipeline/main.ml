(* Benchmark entry point for the paper pipeline.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Sets the workload up three times and keeps the last instance; setup_s
   is the median of the three.  Then runs ops back to back for S seconds,
   and at least the workload's count_ops.  Before each op, outside the
   timed region, come a full major GC and the timed reference units that
   op times are divided by.  Everything runs in this one process at one
   domain.  With --trace 0 the last stdout line carries the end-to-end
   metrics; with --trace 1 every other op is traced and the line carries
   the per-layer metrics, the spans going to _build/pipeline-bench/. *)

module W = Pipeline_bench.Workload
module Trace = Pipeline_bench.Trace
module Reference = Pipeline_bench.Reference

let setup_repeats = 3

type run = {
  index : int;
  traced : bool;
  op : W.op;
  wall_s : float;
  ref_s : float;
      (** median host time of the reference units timed just before and
          just after the op *)
}

let median xs = Slpdas_util.Stats.percentile xs 0.5

let sum xs = List.fold_left ( +. ) 0. xs

(* Peak resident set size of this process, from /proc (0 where absent). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan ())
    in
    let v = scan () in
    close_in ic;
    v

let json_number v = Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

(* Op times are reported in reference units: each op's host seconds
   divided by the host time of the reference unit around that op (see
   reference.ml).  Set-up time stays in host seconds. *)
let end_to_end (w : W.t) ~setup_s runs =
  let ops = List.map (fun r -> r.op) runs in
  let times = List.map (fun r -> W.op_seconds r.op /. r.ref_s) runs in
  let stage f =
    List.filter_map (fun r -> Option.map (fun s -> s /. r.ref_s) (f r.op)) runs
  in
  let requests = List.fold_left (fun a o -> a + o.W.requests) 0 ops in
  let passed = List.fold_left (fun a o -> a + o.W.passed) 0 ops in
  Printf.printf
    "# %s: %d ops, %d requests, tail percentile p%g, reference unit %.6f s\n"
    w.W.name (List.length ops) requests (100. *. w.W.tail_pct)
    (median (List.map (fun r -> r.ref_s) runs));
  [
    ("setup_s", "s", setup_s);
    ("ok_ratio", "ratio", float_of_int passed /. float_of_int requests);
    ("peak_rss_mb", "MB", peak_rss_mb ());
    ("op_p50", "ref", median times);
    ("op_tail", "ref", Slpdas_util.Stats.percentile times w.W.tail_pct);
    ("stage1_p50", "ref", median (stage (fun o -> o.W.stage1_s)));
    ("stage2_p50", "ref", median (stage (fun o -> o.W.stage2_s)));
    ("requests_per_kref", "1/kref", 1000. *. float_of_int requests /. sum times);
  ]

(* Span name -> per-layer time metric. *)
let busy_metrics =
  [
    ("topology", "topology.busy_s");
    ("das_build", "das_build.busy_s");
    ("das_check", "das_check.busy_s");
    ("slp_refine", "slp_refine.busy_s");
    ("verifier", "verifier.busy_s");
    ("shard.plan", "shard.plan_s");
    ("shard.coupled", "shard.coupled_busy_s");
    ("runner", "runner.busy_s");
    ("batch", "batch.busy_s");
    ("batch_mc", "batch_mc.busy_s");
  ]

(* Layer -> the spans whose allocation it owns. *)
let alloc_metrics =
  [
    ("das_build.alloc_mw", [ "das_build" ]);
    ("slp_refine.alloc_mw", [ "slp_refine" ]);
    ("shard.alloc_mw", [ "shard.plan"; "shard.coupled" ]);
    ("runner.alloc_mw", [ "runner" ]);
    ("batch.alloc_mw", [ "batch" ]);
    ("batch_mc.alloc_mw", [ "batch_mc" ]);
  ]

let count_metrics =
  [
    "das_build.period_len";
    "verifier.states";
    "shard.cut_links";
    "shard.boundary_nodes";
    "engine.events";
    "engine.broadcasts";
    "engine.deliveries";
    "runner.setup_messages";
    "runner.attacker_moves";
    "runner.captures";
    "cache.hits";
    "cache.misses";
    "cache.stores";
    "cache.evictions";
    "mc_cache.hits";
    "mc_cache.misses";
    "mc_cache.stores";
    "service.served";
    "service.computed";
  ]

let per_layer (w : W.t) spans runs =
  let figures = Trace.self_figures spans in
  let traced = List.filter (fun r -> r.traced) runs in
  let untraced = List.filter (fun r -> not r.traced) runs in
  (* Per-op sums of self time / self allocation over the given span names;
     ops are the traced timed ops that called the layer, or set-up alone
     for a layer only set-up calls. *)
  let per_op names pick =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (s, self_s, self_w) ->
        if List.mem s.Trace.name names then
          let v = pick self_s self_w in
          Hashtbl.replace tbl s.Trace.op
            (v +. Option.value (Hashtbl.find_opt tbl s.Trace.op) ~default:0.))
      figures;
    let timed = Hashtbl.fold (fun op v acc -> if op >= 0 then (op, v) :: acc else acc) tbl [] in
    match timed, Hashtbl.find_opt tbl (-1) with
    | [], Some v -> [ (-1, v) ]
    | timed, _ -> timed
  in
  let median_or_zero = function [] -> 0. | xs -> median xs in
  let busy =
    List.map
      (fun (span, metric) ->
        ( metric,
          "s",
          median_or_zero (List.map snd (per_op [ span ] (fun s _ -> s))) ))
      busy_metrics
  in
  let alloc =
    List.map
      (fun (metric, names) ->
        ( metric,
          "Mw",
          median_or_zero (List.map snd (per_op names (fun _ a -> a /. 1e6))) ))
      alloc_metrics
  in
  (* Engine cost per event: the self time of the span that drives the
     engine, over the events that op processed. *)
  let ns_per_event =
    let engine_s = per_op [ "runner"; "shard.coupled" ] (fun s _ -> s) in
    median_or_zero
      (List.filter_map
         (fun (op, s) ->
           match List.find_opt (fun r -> r.index = op) runs with
           | Some r -> (
             match List.assoc_opt "engine.events" r.op.W.counts with
             | Some ev when ev > 0. -> Some (s *. 1e9 /. ev)
             | _ -> None)
           | None -> None)
         engine_s)
  in
  let counts =
    let first = List.filter (fun r -> r.index < w.W.count_ops) runs in
    let all = w.W.setup_counts @ List.concat_map (fun r -> r.op.W.counts) first in
    fun k -> sum (List.filter_map (fun (k', v) -> if k = k' then Some v else None) all)
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let lookups = counts "cache.hits" +. counts "cache.misses" in
  let mc_lookups = counts "mc_cache.hits" +. counts "mc_cache.misses" in
  let op_times rs = List.map (fun r -> W.op_seconds r.op) rs in
  let traced_p50 = median_or_zero (op_times traced) in
  let untraced_p50 = median_or_zero (op_times untraced) in
  let coverage =
    let top = sum (List.map snd (per_op (List.map fst busy_metrics) (fun s _ -> s))) in
    ratio top (sum (List.map (fun r -> r.wall_s) traced))
  in
  busy @ alloc
  @ [ ("engine.ns_per_event", "ns", ns_per_event) ]
  @ List.map (fun k -> (k, "count", counts k)) count_metrics
  @ [
      ( "slp_refine.chain_len",
        "ratio",
        ratio (counts "slp_refine.changed") (counts "slp_refine.requested") );
      ("cache.lookups", "count", lookups);
      ("cache.hit_ratio", "ratio", ratio (counts "cache.hits") lookups);
      ("mc_cache.lookups", "count", mc_lookups);
      ("mc_cache.hit_ratio", "ratio", ratio (counts "mc_cache.hits") mc_lookups);
      ("trace.count_ops", "count", float_of_int w.W.count_ops);
      ("trace.traced_ops", "count", float_of_int (List.length traced));
      ("trace.traced_p50_s", "s", traced_p50);
      ("trace.untraced_p50_s", "s", untraced_p50);
      ("trace.overhead_s", "s", traced_p50 -. untraced_p50);
      ("trace.coverage", "ratio", coverage);
      ("trace.tail_pct", "%", 100. *. w.W.tail_pct);
      ("host.ref_unit_s", "s", median (List.map (fun r -> r.ref_s) runs));
    ]

let write_spans ~workload ~seed spans =
  let dir = Filename.concat "_build" "pipeline-bench" in
  (try Sys.mkdir "_build" 0o755 with Sys_error _ -> ());
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.spans.jsonl" workload seed) in
  let oc = open_out path in
  Trace.to_json_lines oc spans;
  close_out oc;
  Printf.printf "# spans: %s\n" path

let run ~workload ~seed ~seconds ~trace =
  let tr = Trace.create () in
  (* Set-up runs [setup_repeats] times before the loop, each time from a
     full major GC and with the previous instance already unreachable, so
     no two instances are live at once.  The last instance is the one the
     loop uses, and the one traced. *)
  let setups = ref [] and last = ref None in
  for k = 1 to setup_repeats do
    last := None;
    Gc.full_major ();
    tr.Trace.enabled <- trace && k = setup_repeats;
    let t0 = Trace.now () in
    let w = W.create workload tr ~seed in
    setups := (Trace.now () -. t0) :: !setups;
    last := Some w
  done;
  tr.Trace.enabled <- false;
  let w = Option.get !last in
  (* Before each op, from a full major GC: [ref_units] timed reference
     units, then a minor GC so the op starts on an empty minor heap.  One
     more block of units follows the last op, so every op has units on
     both sides. *)
  let reference_block () =
    Gc.full_major ();
    let units =
      List.init w.W.ref_units (fun _ ->
          let t0 = Trace.now () in
          Reference.run ();
          Trace.now () -. t0)
    in
    Gc.minor ();
    units
  in
  let ops = ref [] in
  let start = Trace.now () in
  let i = ref 0 in
  while Trace.now () -. start < seconds || !i < w.W.count_ops do
    let before = reference_block () in
    let traced = trace && !i mod 2 = 0 in
    tr.Trace.enabled <- traced;
    let t0 = Trace.now () in
    let op = Trace.op tr !i w.W.run_op in
    let wall_s = Trace.now () -. t0 in
    tr.Trace.enabled <- false;
    ops := (!i, traced, op, wall_s, before) :: !ops;
    incr i
  done;
  let runs =
    List.fold_left
      (fun (after, acc) (index, traced, op, wall_s, before) ->
        let ref_s = median (before @ after) in
        (before, { index; traced; op; wall_s; ref_s } :: acc))
      (reference_block (), []) !ops
    |> snd
  in
  let setup_s = median !setups in
  let attempted = List.fold_left (fun a r -> a + r.op.W.requests) 0 runs in
  let failed = attempted - List.fold_left (fun a r -> a + r.op.W.passed) 0 runs in
  let metrics =
    if trace then begin
      let spans = Trace.spans tr in
      write_spans ~workload ~seed spans;
      per_layer w spans runs
    end
    else end_to_end w ~setup_s runs
  in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics

let usage () =
  Printf.eprintf
    "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
    (String.concat "|" W.names);
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload W.names) then usage ();
  let seconds = float_of_int (int "seconds") in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  run ~workload ~seed:(int "seed") ~seconds ~trace
