(* The three benchmark workloads.  Each is a closed loop with one client:
   [run_op] issues the next operation only after the previous one returned.
   Inputs come only from the workload seed, through [Slpdas_util.Rng]; the
   library receives the generated inputs.  Every op checks its outputs
   exactly and reports how many of its requests passed. *)

module Rng = Slpdas_util.Rng
module Topology = Slpdas_wsn.Topology
module Graph = Slpdas_wsn.Graph
module Event = Slpdas_sim.Event

type op = {
  stage1_s : float option;  (** host time of the op's first stage *)
  stage2_s : float option;  (** host time of the op's second stage *)
  requests : int;  (** requests the op answered *)
  passed : int;  (** requests whose outputs passed the exact checks *)
  counts : (string * float) list;
      (** work counts; equal seeds give equal counts *)
}

type t = {
  name : string;
  inputs : unit -> int list;
      (** the seeds fed to the library so far: DES run seeds, deployment
          seeds, or the serve pool's deployment seeds *)
  setup_counts : (string * float) list;  (** work counts of set-up itself *)
  run_op : unit -> op;
  count_ops : int;
      (** counts are summed over this many first timed ops, a number every
          run reaches, so they repeat exactly per seed *)
  tail_pct : float;
      (** highest op-latency percentile with at least ten samples beyond it
          at the op count of a default-length run *)
  ref_units : int;
      (** reference units timed before each op, a tenth of the op's time or
          less *)
}

let time_of = function Some s -> s | None -> 0.

let op_seconds op = time_of op.stage1_s +. time_of op.stage2_s

let fail fmt = Printf.ksprintf failwith fmt

(* A seed drawn from [rng], remembered in [drawn]. *)
let draw_seed rng drawn =
  let s = Rng.int rng 1_000_000_000 in
  drawn := s :: !drawn;
  s

(* ------------------------------------------------------------------ *)
(* des-fig5: the paper's Fig. 5 experiment                            *)
(* ------------------------------------------------------------------ *)

(* Full discrete-event runs (protocol, engine and attacker together) of
   [Runner.default_config] on one paper grid; protectionless and SLP runs
   alternate, each with a fresh run seed.  Stage 1 is a protectionless run,
   stage 2 an SLP run. *)
let des_fig5 ?(dim = 11) tr ~seed =
  let topology, _ = Trace.call tr "topology" (fun () -> Topology.grid dim) in
  let g = topology.Topology.graph in
  let sink = topology.Topology.sink and source = topology.Topology.source in
  let rng = Rng.create seed in
  let drawn = ref [] in
  let k = ref 0 in
  let run_op () =
    let slp = !k mod 2 = 1 in
    incr k;
    let run_seed = draw_seed rng drawn in
    let mode =
      if slp then Slpdas_core.Protocol.Slp else Slpdas_core.Protocol.Protectionless
    in
    let config = Slpdas_exp.Runner.default_config ~topology ~mode ~seed:run_seed in
    let (r, c), dt =
      Trace.call tr "runner" (fun () -> Slpdas_exp.Runner.run_with_events config)
    in
    (* Protectionless schedules may be weak only (seeded parent choice), so
       strong DAS is not required of either mode. *)
    let rec edge_walk = function
      | a :: (b :: _ as rest) -> Graph.mem_edge g a b && edge_walk rest
      | _ -> true
    in
    let path = r.Slpdas_exp.Runner.attacker_path in
    let ok =
      r.Slpdas_exp.Runner.complete && r.Slpdas_exp.Runner.weak_das
      && (match path with p :: _ -> p = sink | [] -> false)
      && edge_walk path
      && Bool.equal r.Slpdas_exp.Runner.captured
           (r.Slpdas_exp.Runner.attacker_final = source)
    in
    {
      stage1_s = (if slp then None else Some dt);
      stage2_s = (if slp then Some dt else None);
      requests = 1;
      passed = (if ok then 1 else 0);
      counts =
        [
          ("engine.events", float_of_int (Event.total c));
          ("engine.broadcasts", float_of_int c.Event.broadcasts);
          ("engine.deliveries", float_of_int c.Event.deliveries);
          ("runner.setup_messages", float_of_int r.Slpdas_exp.Runner.setup_messages);
          ("runner.attacker_moves", float_of_int c.Event.attacker_moves);
          ("runner.captures", if r.Slpdas_exp.Runner.captured then 1. else 0.);
        ];
    }
  in
  (* The discarded warm-up op. *)
  ignore (run_op ());
  {
    name = "des-fig5";
    inputs = (fun () -> List.rev !drawn);
    setup_counts = [];
    run_op;
    count_ops = 8;
    tail_pct = 0.93;
    ref_units = 10;
  }

(* ------------------------------------------------------------------ *)
(* grid-pipeline: one large deployment per op                         *)
(* ------------------------------------------------------------------ *)

(* Topology -> seeded DAS build -> strong-DAS check -> SLP refinement ->
   Algorithm 1 (stage 1), then a radio-coupled flood over a 2x2 cell plan
   to a fixed simulated horizon (stage 2).  Every op is a fresh deployment
   seed on the same grid. *)
let grid_pipeline ?(dim = 101) ?(until = 20) tr ~seed =
  let rng = Rng.create seed in
  let drawn = ref [] in
  let search_distance = 3 in
  let run_op () =
    let deployment = draw_seed rng drawn in
    let (topo, delta_ss), t_topo =
      Trace.call tr "topology" (fun () ->
          let t = Topology.grid dim in
          (t, Topology.source_sink_distance t))
    in
    let g = topo.Topology.graph and sink = topo.Topology.sink in
    let build_rng = Rng.create deployment in
    let das, t_build =
      Trace.call tr "das_build" (fun () ->
          Slpdas_core.Das_build.build ~rng:build_rng g ~sink)
    in
    let schedule = das.Slpdas_core.Das_build.schedule in
    let violations, t_check =
      Trace.call tr "das_check" (fun () ->
          Slpdas_core.Das_check.check_strong g schedule)
    in
    let change_length = max 1 (delta_ss - search_distance) in
    let refined, t_refine =
      Trace.call tr "slp_refine" (fun () ->
          Slpdas_core.Slp_refine.refine ~rng:build_rng g ~das ~search_distance
            ~change_length)
    in
    let safety_period = Slpdas_core.Safety.safety_periods ~delta_ss () in
    let attacker = Slpdas_core.Attacker.canonical ~start:sink in
    let refined_schedule, changed =
      match refined with
      | Some r ->
        ( r.Slpdas_core.Slp_refine.refined,
          List.length r.Slpdas_core.Slp_refine.change_path )
      | None -> (schedule, 0)
    in
    let (_, states), t_verify =
      Trace.call tr "verifier" (fun () ->
          Slpdas_core.Verifier.verify_with_stats g refined_schedule ~attacker
            ~safety_period ~source:topo.Topology.source)
    in
    let plan, t_plan =
      Trace.call tr "shard.plan" (fun () ->
          Slpdas_sim.Shard.plan ~cells_x:2 ~cells_y:2 topo)
    in
    let (_, flood), t_flood =
      Trace.call tr "shard.coupled" (fun () ->
          Slpdas_sim.Shard.run_coupled ~domains:1 plan
            ~link:Slpdas_sim.Link_model.Ideal ~seed:deployment
            ~program:Wave.program ~until:(float_of_int until))
    in
    (* On ideal links every wave that completes within the horizon delivers
       once per direction of every edge; waves start at t = 1, 2, ..., and
       the one starting exactly at the horizon gets only its origin
       broadcast. *)
    let n = Graph.n g and arcs = 2 * Graph.num_edges g in
    let waves = until - 1 in
    let ok =
      violations = []
      && refined <> None
      && Slpdas_core.Das_check.is_weak g refined_schedule
      && flood.Event.deliveries = waves * arcs
      && flood.Event.broadcasts >= waves * n
      && flood.Event.broadcasts <= (waves * n) + 1
    in
    {
      stage1_s = Some (t_topo +. t_build +. t_check +. t_refine +. t_verify);
      stage2_s = Some (t_plan +. t_flood);
      requests = 1;
      passed = (if ok then 1 else 0);
      counts =
        [
          ( "das_build.period_len",
            float_of_int (Slpdas_core.Das_build.schedule_length schedule) );
          ("slp_refine.changed", float_of_int changed);
          ("slp_refine.requested", float_of_int change_length);
          ("verifier.states", float_of_int states);
          ("shard.cut_links", float_of_int plan.Slpdas_sim.Shard.cut_links);
          ( "shard.boundary_nodes",
            float_of_int (Slpdas_sim.Shard.boundary_nodes plan) );
          ("engine.events", float_of_int (Event.total flood));
          ("engine.broadcasts", float_of_int flood.Event.broadcasts);
          ("engine.deliveries", float_of_int flood.Event.deliveries);
        ];
    }
  in
  ignore (run_op ());
  {
    name = "grid-pipeline";
    inputs = (fun () -> List.rev !drawn);
    setup_counts = [];
    run_op;
    count_ops = 4;
    tail_pct = 0.65;
    ref_units = 40;
  }

(* ------------------------------------------------------------------ *)
(* serve-mix: a verification stream through one persistent Service    *)
(* ------------------------------------------------------------------ *)

type entry = {
  graph : Graph.t;
  schedule : Slpdas_core.Schedule.t;
  lowest : Slpdas_core.Attacker.params;
  avoiding : Slpdas_core.Attacker.params;
  safety_period : int;
  source : int;
}

(* A request names a pool schedule plus a query: [kind] 0 and 1 are the
   exhaustive lowest-slot and history-avoiding (r=2, h=2) queries, 2 to 5
   the MC attacker classes; [variant] lengthens the safety period. *)
type request = { sched : int; kind : int; variant : int; mc_seed : int }

let mc_classes =
  [|
    Slpdas_attack.Model.Local;
    Slpdas_attack.Model.Global;
    Slpdas_attack.Model.Coop 3;
    Slpdas_attack.Model.Sector_phantom;
  |]

let mc_trials = 128

(* Zipf(1) over [n] ranks, as a cumulative table for inverse sampling. *)
let zipf_cdf n =
  let w = Array.init n (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw rng cdf =
  let u = Rng.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let stats_counts (s : Slpdas_serve.Service.stats) =
  let c = s.Slpdas_serve.Service.cache and m = s.Slpdas_serve.Service.mc in
  let f = float_of_int in
  [
    ("cache.hits", f (c.Slpdas_serve.Cache.hits + c.Slpdas_serve.Cache.disk_hits));
    ("cache.misses", f c.Slpdas_serve.Cache.misses);
    ("cache.stores", f c.Slpdas_serve.Cache.stores);
    ("cache.evictions", f c.Slpdas_serve.Cache.evictions);
    ("mc_cache.hits", f (m.Slpdas_serve.Cache.hits + m.Slpdas_serve.Cache.disk_hits));
    ("mc_cache.misses", f m.Slpdas_serve.Cache.misses);
    ("mc_cache.stores", f m.Slpdas_serve.Cache.stores);
    ("service.served", f s.Slpdas_serve.Service.served);
    ("service.computed", f s.Slpdas_serve.Service.computed);
  ]

let diff_counts after before =
  List.map2 (fun (k, a) (_, b) -> (k, a -. b)) after before

(* Fixed-size batches over a schedule pool built in set-up (grids 11, 15
   and 21, protectionless and SLP, [pool_seeds] deployments each).  Every
   batch sends [exhaustive] requests through [Batch.run_many] (stage 1) and
   [mc] requests through [Batch.run_many_mc] (stage 2).  Popularity is
   skewed: most requests come from a small hot set under Zipf(1), the rest
   from a cold space far larger than the 4096-entry LRU, so repeats (reads)
   sit beside first-time queries (compute and store) and the memory tier
   evicts.  Set-up fills the exhaustive cache to capacity so the timed
   stream starts in steady state. *)
let serve_mix ?(dims = [ 11; 15; 21 ]) ?(pool_seeds = 8) ?(exhaustive = 416)
    ?(mc = 96) ?(fill = 4096) tr ~seed =
  let rng = Rng.create seed in
  let check_rng = Rng.split rng in
  let deployments = ref [] in
  let pool =
    List.concat_map
      (fun dim ->
        let (topo, delta_ss), _ =
          Trace.call tr "topology" (fun () ->
              let t = Topology.grid dim in
              (t, Topology.source_sink_distance t))
        in
        let g = topo.Topology.graph and sink = topo.Topology.sink in
        let safety_period = Slpdas_core.Safety.safety_periods ~delta_ss () in
        let lowest =
          Slpdas_serve.Query.make_attacker Slpdas_serve.Query.Lowest_slot ~r:1
            ~h:0 ~m:1 ~start:sink
        and avoiding =
          Slpdas_serve.Query.make_attacker Slpdas_serve.Query.History_avoiding
            ~r:2 ~h:2 ~m:1 ~start:sink
        in
        List.concat_map
          (fun slp ->
            List.init pool_seeds (fun _ ->
                let s = Rng.int rng 1_000_000_000 in
                deployments := s :: !deployments;
                let build_rng = Rng.create s in
                let das, _ =
                  Trace.call tr "das_build" (fun () ->
                      Slpdas_core.Das_build.build ~rng:build_rng g ~sink)
                in
                let schedule, changed =
                  if not slp then (das.Slpdas_core.Das_build.schedule, 0)
                  else
                    match
                      fst
                        (Trace.call tr "slp_refine" (fun () ->
                             Slpdas_core.Slp_refine.refine ~rng:build_rng g
                               ~das ~search_distance:3
                               ~change_length:(max 1 (delta_ss - 3))))
                    with
                    | Some r ->
                      ( r.Slpdas_core.Slp_refine.refined,
                        List.length r.Slpdas_core.Slp_refine.change_path )
                    | None -> fail "serve-mix: no SLP refinement at %dx%d" dim dim
                in
                let violations, _ =
                  Trace.call tr "das_check" (fun () ->
                      if slp then Slpdas_core.Das_check.check_weak g schedule
                      else Slpdas_core.Das_check.check_strong g schedule)
                in
                if violations <> [] then
                  fail "serve-mix: pool schedule at %dx%d is not a DAS" dim dim;
                ( {
                    graph = g;
                    schedule;
                    lowest;
                    avoiding;
                    safety_period;
                    source = topo.Topology.source;
                  },
                  [
                    ( "das_build.period_len",
                      float_of_int
                        (Slpdas_core.Das_build.schedule_length
                           das.Slpdas_core.Das_build.schedule) );
                    ("slp_refine.changed", float_of_int changed);
                    ( "slp_refine.requested",
                      if slp then float_of_int (max 1 (delta_ss - 3)) else 0. );
                  ] )))
          [ false; true ])
      dims
  in
  let setup_counts =
    List.fold_left
      (fun acc (_, c) -> List.map2 (fun (k, a) (_, b) -> (k, a +. b)) acc c)
      (List.map (fun (k, _) -> (k, 0.)) (snd (List.hd pool)))
      pool
  in
  let pool = Array.of_list (List.map fst pool) in
  let n_sched = Array.length pool in
  let hot_variants = 4 and cold_variants = 1024 and mc_variants = 2 in
  let shuffled a =
    Rng.shuffle rng a;
    a
  in
  let hot_ex =
    shuffled
      (Array.init (n_sched * 2 * hot_variants) (fun i ->
           {
             sched = i / (2 * hot_variants);
             kind = i / hot_variants mod 2;
             variant = i mod hot_variants;
             mc_seed = 0;
           }))
  and hot_mc =
    shuffled
      (Array.init (n_sched * 4 * mc_variants) (fun i ->
           {
             sched = i / (4 * mc_variants);
             kind = 2 + (i / mc_variants mod 4);
             variant = i mod mc_variants;
             mc_seed = 0;
           }))
  in
  let ex_cdf = zipf_cdf (Array.length hot_ex)
  and mc_cdf = zipf_cdf (Array.length hot_mc) in
  let draw_exhaustive () =
    if Rng.float rng 1.0 < 0.85 then hot_ex.(zipf_draw rng ex_cdf)
    else
      {
        sched = Rng.int rng n_sched;
        kind = Rng.int rng 2;
        variant = hot_variants + Rng.int rng cold_variants;
        mc_seed = 0;
      }
  and draw_mc () =
    if Rng.float rng 1.0 < 0.2 then hot_mc.(zipf_draw rng mc_cdf)
    else
      {
        sched = Rng.int rng n_sched;
        kind = 2 + Rng.int rng 4;
        variant = Rng.int rng mc_variants;
        mc_seed = 1 + Rng.int rng 1_000_000_000;
      }
  in
  let item r =
    let e = pool.(r.sched) in
    {
      Slpdas_serve.Batch.graph = e.graph;
      schedule = e.schedule;
      attacker = (if r.kind = 0 then e.lowest else e.avoiding);
      safety_period = e.safety_period + r.variant;
      source = e.source;
    }
  and mc_item r =
    let e = pool.(r.sched) in
    {
      Slpdas_serve.Batch.mc_graph = e.graph;
      mc_schedule = e.schedule;
      cls = mc_classes.(r.kind - 2);
      mc_attacker = e.lowest;
      trials = mc_trials;
      seed = r.mc_seed;
      mc_safety_period = e.safety_period + r.variant;
      mc_source = e.source;
    }
  in
  let service = Slpdas_serve.Service.create () in
  (* Fill the memory tier with distinct cold queries. *)
  let fill_requests =
    List.init fill (fun i ->
        {
          sched = i mod n_sched;
          kind = i / n_sched mod 2;
          variant = hot_variants + (i / (2 * n_sched));
          mc_seed = 0;
        })
  in
  ignore
    (Trace.call tr "batch" (fun () ->
         Slpdas_serve.Batch.run_many ~domains:1 service
           (List.map item fill_requests)));
  (* Checks run outside the timed region.  A hot key's first answer is
     recomputed without the service and every repeat must answer equal to
     it; the table holds the hot sets only, so the check state is the same
     size in every run.  Every cold exhaustive answer is recomputed.  Cold
     MC requests carry a fresh MC seed, so they do not repeat; one
     seed-chosen MC request per batch is recomputed. *)
  let first_ex = Hashtbl.create 512 and first_mc = Hashtbl.create 512 in
  let agree tbl eq key answer recompute =
    match Hashtbl.find_opt tbl key with
    | Some a -> eq a answer
    | None ->
      Hashtbl.add tbl key answer;
      eq (recompute ()) answer
  in
  let verify (it : Slpdas_serve.Batch.item) =
    let outcome, explored =
      Slpdas_core.Verifier.verify_with_stats it.Slpdas_serve.Batch.graph
        it.Slpdas_serve.Batch.schedule ~attacker:it.Slpdas_serve.Batch.attacker
        ~safety_period:it.Slpdas_serve.Batch.safety_period
        ~source:it.Slpdas_serve.Batch.source
    in
    { Slpdas_serve.Query.outcome; explored }
  and certify (it : Slpdas_serve.Batch.mc_item) =
    let spec =
      {
        Slpdas_attack.Mc_verify.cls = it.Slpdas_serve.Batch.cls;
        attacker = it.Slpdas_serve.Batch.mc_attacker;
        trials = it.Slpdas_serve.Batch.trials;
        seed = it.Slpdas_serve.Batch.seed;
      }
    in
    Slpdas_attack.Mc_verify.certify spec it.Slpdas_serve.Batch.mc_graph
      it.Slpdas_serve.Batch.mc_schedule
      ~safety_period:it.Slpdas_serve.Batch.mc_safety_period
      ~source:it.Slpdas_serve.Batch.mc_source
  in
  let run_op () =
    let ex_reqs = List.init exhaustive (fun _ -> draw_exhaustive ()) in
    let mc_reqs = List.init mc (fun _ -> draw_mc ()) in
    let ex_items = List.map item ex_reqs and mc_items = List.map mc_item mc_reqs in
    let before = stats_counts (Slpdas_serve.Service.stats service) in
    let ex_answers, t_ex =
      Trace.call tr "batch" (fun () ->
          Slpdas_serve.Batch.run_many ~domains:1 service ex_items)
    in
    let mc_answers, t_mc =
      Trace.call tr "batch_mc" (fun () ->
          Slpdas_serve.Batch.run_many_mc ~domains:1 service mc_items)
    in
    let after = stats_counts (Slpdas_serve.Service.stats service) in
    let ex_ok =
      List.map2
        (fun (r, it) answer ->
          if r.variant < hot_variants then
            agree first_ex Slpdas_serve.Query.answer_equal r answer (fun () ->
                verify it)
          else Slpdas_serve.Query.answer_equal (verify it) answer)
        (List.combine ex_reqs ex_items) ex_answers
    and mc_ok =
      List.map2
        (fun (r, it) answer ->
          r.mc_seed <> 0
          || agree first_mc Slpdas_serve.Mc_query.answer_equal r answer
               (fun () -> certify it))
        (List.combine mc_reqs mc_items) mc_answers
    in
    let j = Rng.int check_rng mc in
    let sample_ok =
      Slpdas_serve.Mc_query.answer_equal
        (certify (List.nth mc_items j))
        (List.nth mc_answers j)
    in
    let oks = ex_ok @ List.mapi (fun i ok -> ok && (i <> j || sample_ok)) mc_ok in
    {
      stage1_s = Some t_ex;
      stage2_s = Some t_mc;
      requests = exhaustive + mc;
      passed = List.length (List.filter Fun.id oks);
      counts = diff_counts after before;
    }
  in
  ignore (run_op ());
  {
    name = "serve-mix";
    inputs = (fun () -> List.rev !deployments);
    setup_counts;
    run_op;
    count_ops = 200;
    tail_pct = 0.98;
    ref_units = 4;
  }

let names = [ "des-fig5"; "grid-pipeline"; "serve-mix" ]

let create name tr ~seed =
  match name with
  | "des-fig5" -> des_fig5 tr ~seed
  | "grid-pipeline" -> grid_pipeline tr ~seed
  | "serve-mix" -> serve_mix tr ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)
