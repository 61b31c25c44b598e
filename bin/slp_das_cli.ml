(* Command-line interface to the SLP-DAS library.

   Subcommands:
     topology    print a topology and its source/sink/∆ss facts
     schedule    build a DAS schedule (optionally SLP-refined) and check it
     verify      run VerifySchedule (Algorithm 1) against an attacker
     simulate    one full discrete-event run with an attacker
     chaos       seeded fault-injection runs with repair metrics
     experiment  capture-ratio sweeps (the Fig. 5 experiment)
     serve       answer batched verification queries through the cache
     tune        search the (SD, CL) space for the max-delta schedule

   The terms shared across subcommands (dimension, seed, refinement
   knobs, attacker budget, ...) live in Cli_terms. *)

open Cmdliner
open Cli_terms

(* ------------------------------------------------------------------ *)
(* topology                                                           *)
(* ------------------------------------------------------------------ *)

let topology_cmd =
  let run dim =
    let topo = topology_of_dim dim in
    Format.printf "%a@." Slpdas_wsn.Topology.pp topo;
    Format.printf "source-sink distance (dss): %d@."
      (Slpdas_wsn.Topology.source_sink_distance topo);
    let g = topo.Slpdas_wsn.Topology.graph in
    if Slpdas_wsn.Graph.n g <= diameter_node_limit then
      Format.printf "diameter: %d@." (Slpdas_wsn.Graph.diameter g)
    else
      Format.printf "diameter: skipped (all-pairs BFS; > %d nodes)@."
        diameter_node_limit
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Describe a grid topology")
    Term.(const run $ dim_arg)

(* ------------------------------------------------------------------ *)
(* schedule                                                           *)
(* ------------------------------------------------------------------ *)

let schedule_cmd =
  let run dim seed slp sd gap show_grid save =
    let topo = topology_of_dim dim in
    let g = topo.Slpdas_wsn.Topology.graph in
    let schedule, refinement = build_schedule ~topo ~seed ~slp ~sd ~gap in
    (match save with
    | Some path ->
      let oc = open_out path in
      output_string oc (Slpdas_core.Schedule.to_string schedule);
      close_out oc;
      Format.printf "saved to %s@." path
    | None -> ());
    if show_grid then
      Format.printf "%a@." (Slpdas_core.Schedule.pp_grid ~dim) schedule;
    (match refinement with
    | Some r ->
      Format.printf "search path: %s@."
        (String.concat " -> "
           (List.map string_of_int r.Slpdas_core.Slp_refine.search_path));
      Format.printf "change path: %s@."
        (String.concat " -> "
           (List.map string_of_int r.Slpdas_core.Slp_refine.change_path))
    | None -> ());
    let report name violations =
      match violations with
      | [] -> Format.printf "%s: OK@." name
      | vs ->
        Format.printf "%s: %d violation(s)@." name (List.length vs);
        List.iter
          (fun v ->
            Format.printf "  %s@." (Slpdas_core.Das_check.violation_to_string v))
          vs
    in
    report "strong DAS (Def. 2)" (Slpdas_core.Das_check.check_strong g schedule);
    report "weak DAS (Def. 3)" (Slpdas_core.Das_check.check_weak g schedule)
  in
  let grid_arg =
    Arg.(value & flag & info [ "grid" ] ~doc:"Print the slot field as a matrix.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the schedule to FILE.")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Build and check a DAS schedule")
    Term.(
      const run $ dim_arg $ seed_arg $ slp_arg $ sd_arg $ gap_arg $ grid_arg
      $ save_arg)

(* ------------------------------------------------------------------ *)
(* coverage                                                           *)
(* ------------------------------------------------------------------ *)

let coverage_cmd =
  let run dim seed slp sd gap load =
    let topo = topology_of_dim dim in
    let g = topo.Slpdas_wsn.Topology.graph in
    let schedule =
      match load with
      | Some path ->
        let ic = open_in path in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        begin match Slpdas_core.Schedule.of_string text with
        | Ok s -> s
        | Error reason -> failwith ("could not load schedule: " ^ reason)
        end
      | None -> fst (build_schedule ~topo ~seed ~slp ~sd ~gap)
    in
    let attacker =
      Slpdas_core.Attacker.canonical ~start:topo.Slpdas_wsn.Topology.sink
    in
    let coverage = Slpdas_core.Coverage.analyse g schedule ~attacker in
    Format.printf "protected sources: %d/%d (%.1f%%)@."
      coverage.Slpdas_core.Coverage.protected_sources
      coverage.Slpdas_core.Coverage.total_sources
      (100.0 *. Slpdas_core.Coverage.protected_fraction coverage);
    (match coverage.Slpdas_core.Coverage.min_capture_periods with
    | Some p -> Format.printf "fastest capture: %d periods@." p
    | None -> Format.printf "no source is capturable@.");
    Format.printf "map (.=protected, X=vulnerable, K=sink):@.%a@."
      (Slpdas_core.Coverage.pp_grid ~dim)
      coverage
  in
  let load_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ] ~docv:"FILE" ~doc:"Load the schedule from FILE.")
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:"Certify every node as a potential source (SLP coverage map)")
    Term.(const run $ dim_arg $ seed_arg $ slp_arg $ sd_arg $ gap_arg $ load_arg)

(* ------------------------------------------------------------------ *)
(* verify                                                             *)
(* ------------------------------------------------------------------ *)

let verify_cmd =
  let r_arg, h_arg, m_arg = attacker_args in
  let run dim seed slp sd gap r h m cls mc_trials cache_dir =
    let topo = topology_of_dim dim in
    let g = topo.Slpdas_wsn.Topology.graph in
    let schedule, _ = build_schedule ~topo ~seed ~slp ~sd ~gap in
    let delta_ss = Slpdas_wsn.Topology.source_sink_distance topo in
    let safety_period = Slpdas_core.Safety.safety_periods ~delta_ss () in
    let attacker =
      Slpdas_core.Attacker.make ~r ~h ~m ~start:topo.Slpdas_wsn.Topology.sink ()
    in
    Format.printf "safety period: %d TDMA periods@." safety_period;
    let service = Slpdas_serve.Service.create ?cache_dir () in
    let use_mc = mc_trials > 0 || cls <> Slpdas_attack.Model.Local in
    if use_mc then begin
      (* Exhaustive search does not scale to the non-local classes; certify
         by seeded Monte-Carlo with Wilson bounds instead. *)
      let trials = if mc_trials > 0 then mc_trials else 256 in
      let res =
        Slpdas_serve.Service.mc_certify service g schedule ~cls ~attacker
          ~trials ~seed ~safety_period
          ~source:topo.Slpdas_wsn.Topology.source
      in
      Format.printf "attacker: %s; %d Monte-Carlo trials (seed %d)@."
        (Slpdas_attack.Model.to_string cls)
        res.Slpdas_attack.Mc_verify.trials seed;
      Format.printf
        "capture probability: %.4f (95%% Wilson [%.4f, %.4f]); %d/%d trials@."
        res.Slpdas_attack.Mc_verify.p_hat
        res.Slpdas_attack.Mc_verify.wilson_low
        res.Slpdas_attack.Mc_verify.wilson_high
        res.Slpdas_attack.Mc_verify.captures
        res.Slpdas_attack.Mc_verify.trials;
      match res.Slpdas_attack.Mc_verify.min_periods with
      | Some p -> Format.printf "fastest sampled capture: %d periods@." p
      | None ->
        Format.printf
          "verdict: no trial captured within the safety period@."
    end
    else begin
      let outcome, explored =
        Slpdas_serve.Service.verify_stats service g schedule ~attacker
          ~safety_period ~source:topo.Slpdas_wsn.Topology.source
      in
      (match outcome with
      | Slpdas_core.Verifier.Safe ->
        Format.printf "verdict: SLP-aware (no admissible trace captures)@."
      | Slpdas_core.Verifier.Captured { trace; periods } ->
        Format.printf "verdict: CAPTURED in %d periods@." periods;
        Format.printf "counterexample: %s@."
          (String.concat " -> " (List.map string_of_int trace)));
      Format.printf "explored: %d attacker states@." explored
    end;
    let stats = Slpdas_serve.Service.stats service in
    if
      stats.Slpdas_serve.Service.cache.Slpdas_serve.Cache.disk_hits
      + stats.Slpdas_serve.Service.mc.Slpdas_serve.Cache.disk_hits
      > 0
    then
      Format.printf "(answered from %s)@."
        (Option.value cache_dir ~default:"cache")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run VerifySchedule (Algorithm 1), or certify a non-local attacker \
          by seeded Monte-Carlo")
    Term.(
      const run $ dim_arg $ seed_arg $ slp_arg $ sd_arg $ gap_arg $ r_arg
      $ h_arg $ m_arg $ attacker_cls_arg $ mc_trials_arg $ cache_dir_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                           *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let run dim seed slp sd gap cls trace_count events_json =
    let topo = topology_of_dim dim in
    let mode =
      if slp then Slpdas_core.Protocol.Slp
      else Slpdas_core.Protocol.Protectionless
    in
    let config =
      {
        (Slpdas_exp.Runner.default_config ~topology:topo ~mode ~seed) with
        Slpdas_exp.Runner.params = params_of ~sd ~gap;
        hunter = cls;
      }
    in
    (* Keep only the first [trace_count] transmissions: that is all the
       report prints. *)
    let trace = ref [] in
    let scenario =
      let s = Slpdas_exp.Runner.scenario config in
      if trace_count > 0 then
        Slpdas_exp.Scenario.with_monitor
          (fun engine ->
            Slpdas_sim.Engine.subscribe engine (function
              | Slpdas_sim.Event.Broadcast { time; sender; msg }
                when List.length !trace < trace_count ->
                trace :=
                  (time, sender, Slpdas_core.Messages.describe msg) :: !trace
              | _ -> ()))
          s
      else s
    in
    let r, counters = Slpdas_exp.Harness.run_with_events scenario in
    if trace_count > 0 then begin
      Format.printf "first %d transmissions:@." trace_count;
      List.iter
        (fun (time, sender, label) ->
          Format.printf "  %8.3f  node %-4d %s@." time sender label)
        (List.rev !trace)
    end;
    Format.printf "mode: %s; attacker %s; seed %d; dss=%d; safety period %.1fs@."
      (if slp then "SLP DAS" else "protectionless DAS")
      (Slpdas_attack.Model.to_string cls)
      seed r.Slpdas_exp.Runner.delta_ss r.Slpdas_exp.Runner.safety_seconds;
    Format.printf "schedule: complete=%b strong=%b weak=%b@."
      r.Slpdas_exp.Runner.complete r.Slpdas_exp.Runner.strong_das
      r.Slpdas_exp.Runner.weak_das;
    Format.printf "messages: setup=%d total=%d@." r.Slpdas_exp.Runner.setup_messages
      r.Slpdas_exp.Runner.total_messages;
    Format.printf "attacker path: %s@."
      (String.concat " -> "
         (List.map string_of_int r.Slpdas_exp.Runner.attacker_path));
    print_energy topo.Slpdas_wsn.Topology.graph
      ~broadcasts_by_node:r.Slpdas_exp.Runner.broadcasts_by_node
      ~duration_seconds:r.Slpdas_exp.Runner.duration_seconds;
    write_events_json events_json counters;
    (match (r.Slpdas_exp.Runner.captured, r.Slpdas_exp.Runner.capture_seconds) with
    | true, Some t -> Format.printf "outcome: CAPTURED after %.1fs@." t
    | _ -> Format.printf "outcome: source safe@.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (int_at_least 0) 0
      & info [ "trace" ] ~docv:"N"
          ~doc:"Print the first N radio transmissions of the run; at least 0.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"One full discrete-event run")
    Term.(
      const run $ dim_arg $ seed_arg $ slp_arg $ sd_arg $ gap_arg
      $ attacker_cls_arg $ trace_arg $ events_json_arg)

(* ------------------------------------------------------------------ *)
(* phantom                                                            *)
(* ------------------------------------------------------------------ *)

(* Both walk direction policies run the same ensemble and print the same
   summary: capture ratio, mean capture time, transmissions and energy. *)
let run_phantom ~header ~direction dim runs walk_length cls domains
    events_json =
  let topo = topology_of_dim dim in
  let configs =
    List.init runs (fun seed ->
        {
          Slpdas_exp.Phantom_runner.topology = topo;
          walk_length;
          direction;
          link = Slpdas_sim.Link_model.Ideal;
          seed;
        })
  in
  let results, counters =
    Slpdas_exp.Phantom_runner.run_many_with_events ?domains ~hunter:cls configs
  in
  let captures = ref 0 and times = ref [] and msgs = ref 0 in
  let n_nodes = Slpdas_wsn.Graph.n topo.Slpdas_wsn.Topology.graph in
  let tx_by_node = Array.make n_nodes 0 in
  let duration = ref 0.0 in
  List.iter
    (fun r ->
      if r.Slpdas_exp.Phantom_runner.captured then begin
        incr captures;
        match r.Slpdas_exp.Phantom_runner.capture_seconds with
        | Some t -> times := t :: !times
        | None -> ()
      end;
      msgs := !msgs + r.Slpdas_exp.Phantom_runner.messages_sent;
      Array.iteri
        (fun i c -> tx_by_node.(i) <- tx_by_node.(i) + c)
        r.Slpdas_exp.Phantom_runner.broadcasts_by_node;
      duration := !duration +. r.Slpdas_exp.Phantom_runner.duration_seconds)
    results;
  Format.printf "%s on %dx%d over %d runs:@.  capture ratio %.1f%%@." header
    dim dim runs
    (100.0 *. float_of_int !captures /. float_of_int runs);
  (match !times with
  | [] -> ()
  | ts ->
    Format.printf "  mean capture time %.1fs@." (Slpdas_util.Stats.mean ts));
  Format.printf "  mean transmissions per run %d@." (!msgs / runs);
  print_energy ~runs topo.Slpdas_wsn.Topology.graph
    ~broadcasts_by_node:tx_by_node ~duration_seconds:!duration;
  write_events_json events_json counters

let walk_arg ~doc =
  Arg.(value & opt (int_at_least 0) 5 & info [ "walk" ] ~docv:"W" ~doc)

let phantom_cmd =
  let run dim runs walk_length =
    run_phantom
      ~header:(Printf.sprintf "phantom routing (walk %d)" walk_length)
      ~direction:Slpdas_core.Phantom.Compass dim runs walk_length
  in
  Cmd.v
    (Cmd.info "phantom"
       ~doc:"Run the routing-layer phantom baseline (related work, SII)")
    Term.(
      const run $ dim_arg $ runs_arg
      $ walk_arg ~doc:"Directed random-walk length (0 = pure flooding)."
      $ attacker_cls_arg $ domains_arg $ events_json_arg)

(* ------------------------------------------------------------------ *)
(* fake sources                                                       *)
(* ------------------------------------------------------------------ *)

let fake_cmd =
  let run dim runs rate cls domains events_json =
    let topo = topology_of_dim dim in
    let corners = Slpdas_core.Fake_source.opposite_corners topo ~dim in
    let configs =
      List.init runs (fun seed ->
          {
            Slpdas_exp.Fake_runner.topology = topo;
            fake_sources = corners;
            fake_rate_multiplier = rate;
            link = Slpdas_sim.Link_model.Ideal;
            seed;
          })
    in
    let results, counters =
      Slpdas_exp.Fake_runner.run_many_with_events ?domains ~hunter:cls configs
    in
    let captures = ref 0 and msgs = ref 0 and real = ref 0 in
    let n_nodes = Slpdas_wsn.Graph.n topo.Slpdas_wsn.Topology.graph in
    let tx_by_node = Array.make n_nodes 0 in
    let duration = ref 0.0 in
    List.iter
      (fun r ->
        if r.Slpdas_exp.Fake_runner.captured then incr captures;
        msgs := !msgs + r.Slpdas_exp.Fake_runner.messages_sent;
        real := !real + r.Slpdas_exp.Fake_runner.real_delivered;
        Array.iteri
          (fun i c -> tx_by_node.(i) <- tx_by_node.(i) + c)
          r.Slpdas_exp.Fake_runner.broadcasts_by_node;
        duration := !duration +. r.Slpdas_exp.Fake_runner.duration_seconds)
      results;
    Format.printf
      "fake sources at %s (rate x%.1f) on %dx%d over %d runs:@."
      (String.concat "," (List.map string_of_int corners))
      rate dim dim runs;
    Format.printf "  capture ratio %.1f%%@."
      (100.0 *. float_of_int !captures /. float_of_int runs);
    Format.printf "  transmissions per delivered reading %.0f@."
      (float_of_int !msgs /. float_of_int (max 1 !real));
    print_energy ~runs topo.Slpdas_wsn.Topology.graph
      ~broadcasts_by_node:tx_by_node ~duration_seconds:!duration;
    write_events_json events_json counters
  in
  let rate_arg =
    Arg.(
      value & opt positive_float 1.0
      & info [ "rate" ] ~docv:"X"
          ~doc:"Decoy chatter relative to the source's rate; above 0.")
  in
  Cmd.v
    (Cmd.info "fake"
       ~doc:"Run the fake-source baseline (related work, SII refs [10]-[12])")
    Term.(
      const run $ dim_arg $ runs_arg $ rate_arg $ attacker_cls_arg
      $ domains_arg $ events_json_arg)

(* ------------------------------------------------------------------ *)
(* sector phantom                                                     *)
(* ------------------------------------------------------------------ *)

let sector_cmd =
  let run dim runs walk_length num_sectors =
    run_phantom
      ~header:
        (Printf.sprintf "sector phantom (walk %d, %d sectors)" walk_length
           num_sectors)
      ~direction:(Slpdas_core.Phantom.Sectors num_sectors) dim runs walk_length
  in
  let sectors_arg =
    Arg.(
      value
      & opt (int_at_least 1) 8
      & info [ "sectors" ] ~docv:"S"
          ~doc:
            "Angular sectors the phantom walk picks from (PSSPR uses 8); at \
             least 1.")
  in
  Cmd.v
    (Cmd.info "sector"
       ~doc:
         "Run the PSSPR-style sector phantom baseline (related work, third \
          comparison family)")
    Term.(
      const run $ dim_arg $ runs_arg
      $ walk_arg ~doc:"Sector-directed random-walk length (0 = pure flooding)."
      $ sectors_arg $ attacker_cls_arg $ domains_arg $ events_json_arg)

(* ------------------------------------------------------------------ *)
(* chaos                                                              *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let run dim seed runs slp sd gap cls plan_text detect_after crashes domains
      resilience_json events_json =
    let params = params_of ~sd ~gap in
    let plan =
      match plan_text with
      | None -> Slpdas_fault.Churn.churn_plan ~params ~crashes ()
      | Some text ->
        begin match Slpdas_fault.Fault_plan.of_string text with
        | Ok plan -> plan
        | Error reason ->
          Format.eprintf "bad --fault-plan: %s@." reason;
          exit 2
        end
    in
    let mode =
      if slp then Slpdas_core.Protocol.Slp
      else Slpdas_core.Protocol.Protectionless
    in
    let configs =
      List.init runs (fun i ->
          {
            (Slpdas_fault.Churn.default_config ~mode ~attacker:cls ~dim
               ~seed:(seed + i) plan) with
            Slpdas_fault.Churn.params;
            detect_after;
          })
    in
    let reports, counters =
      Slpdas_fault.Churn.run_many_with_events ?domains configs
    in
    Format.printf "fault plan: %s@." (Slpdas_fault.Fault_plan.to_string plan);
    print_string
      (Slpdas_util.Tabular.render ~header:Slpdas_fault.Churn.header
         (List.map Slpdas_fault.Churn.row reports));
    let aggregate =
      Slpdas_fault.Resilience.merge_all
        (List.map Slpdas_fault.Resilience.of_report reports)
    in
    Format.printf "%a@." Slpdas_fault.Resilience.pp aggregate;
    (match resilience_json with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Slpdas_fault.Resilience.to_json aggregate);
      output_char oc '\n';
      close_out oc;
      Format.printf "resilience: wrote %s@." path);
    write_events_json events_json counters
  in
  let plan_arg =
    let doc =
      "Fault plan in the lib/fault DSL, e.g. \
       'crash@250:k=3;revive@400:all;burst@700:0.3,50'.  Defaults to the \
       canonical churn plan (random crashes mid-provisioning)."
    in
    Arg.(value & opt (some string) None & info [ "fault-plan" ] ~docv:"PLAN" ~doc)
  in
  let detect_arg =
    let doc =
      "Failure-detection latency in seconds, at least 0 (default: one \
       dissemination period)."
    in
    Arg.(
      value
      & opt (some non_negative_float) None
      & info [ "detect-after" ] ~docv:"SECS" ~doc)
  in
  let crashes_arg =
    let doc =
      "Crash count for the default plan, at least 0 (ignored with \
       --fault-plan)."
    in
    Arg.(value & opt (int_at_least 0) 3 & info [ "crashes" ] ~docv:"K" ~doc)
  in
  let resilience_json_arg =
    let doc = "Write the aggregated resilience counters as JSON to FILE." in
    Arg.(
      value
      & opt (some string) None
      & info [ "resilience-json" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Seeded fault-injection runs with schedule-repair metrics")
    Term.(
      const run $ dim_arg $ seed_arg $ runs_arg $ slp_arg $ sd_arg $ gap_arg
      $ attacker_cls_arg $ plan_arg $ detect_arg $ crashes_arg $ domains_arg
      $ resilience_json_arg $ events_json_arg)

(* ------------------------------------------------------------------ *)
(* experiment                                                         *)
(* ------------------------------------------------------------------ *)

let experiment_cmd =
  let run dim runs sd gap fast show_params =
    let topo = topology_of_dim dim in
    let params = params_of ~sd ~gap in
    if show_params then begin
      let rows =
        List.map
          (fun (name, sym, _desc, value) -> [ name; sym; value ])
          (Slpdas_exp.Params.table_rows params)
      in
      print_string
        (Slpdas_util.Tabular.render ~header:[ "Parameter"; "Symbol"; "Value" ] rows)
    end;
    let seeds = Slpdas_exp.Capture.seeds ~base:1000 ~runs in
    let attacker ~start = Slpdas_core.Attacker.canonical ~start in
    let summary mode =
      if fast then
        Slpdas_exp.Capture.centralized ~topology:topo ~mode ~params ~attacker
          ~seeds ()
      else
        Slpdas_exp.Capture.simulated ~topology:topo ~mode ~params
          ~link:Slpdas_sim.Link_model.Ideal ~attacker ~seeds ()
    in
    let prot = summary Slpdas_core.Protocol.Protectionless in
    let slp = summary Slpdas_core.Protocol.Slp in
    let row name (s : Slpdas_exp.Capture.summary) =
      let lo, hi = s.Slpdas_exp.Capture.ci95 in
      [
        name;
        Printf.sprintf "%.1f%%" (Slpdas_exp.Capture.ratio_percent s);
        Printf.sprintf "[%.1f, %.1f]" (100. *. lo) (100. *. hi);
        string_of_int s.Slpdas_exp.Capture.captures;
        string_of_int s.Slpdas_exp.Capture.runs;
        Printf.sprintf "%.0f" s.Slpdas_exp.Capture.mean_setup_messages;
      ]
    in
    print_string
      (Slpdas_util.Tabular.render
         ~header:[ "algorithm"; "capture"; "95% CI"; "captures"; "runs"; "setup msgs" ]
         [ row "Protectionless DAS" prot; row "SLP DAS" slp ])
  in
  let fast_arg =
    Arg.(
      value & flag
      & info [ "fast" ]
          ~doc:
            "Use the centralized construction + Algorithm 1 instead of the \
             full discrete-event simulation.")
  in
  let show_params_arg =
    Arg.(value & flag & info [ "show-params" ] ~doc:"Print Table I first.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Capture-ratio experiment (Fig. 5)")
    Term.(
      const run $ dim_arg $ runs_arg $ sd_arg $ gap_arg $ fast_arg
      $ show_params_arg)

(* ------------------------------------------------------------------ *)
(* scale                                                              *)
(* ------------------------------------------------------------------ *)

(* Wave-flooding workload for the sharded engine: local node 0 of each
   cell floods a counter every simulated second. *)
let scale_wave_program ~self =
  let go_timer = Slpdas_gcn.Timer.intern "scale-wave" in
  let init ~self =
    ( 0,
      if self = 0 then
        [ Slpdas_gcn.Set_timer { timer = go_timer; after = 1.0 } ]
      else [] )
  in
  let go =
    {
      Slpdas_gcn.name = "go";
      handler =
        (fun ~self:_ wave trigger ->
          match trigger with
          | Slpdas_gcn.Timeout t when Slpdas_gcn.Timer.equal t go_timer ->
            Some
              ( wave + 1,
                [
                  Slpdas_gcn.Broadcast (wave + 1);
                  Slpdas_gcn.Set_timer { timer = go_timer; after = 1.0 };
                ] )
          | _ -> None);
    }
  in
  let forward =
    {
      Slpdas_gcn.name = "forward";
      handler =
        (fun ~self:_ wave trigger ->
          match trigger with
          | Slpdas_gcn.Receive { msg; _ } when msg > wave ->
            Some (msg, [ Slpdas_gcn.Broadcast msg ])
          | _ -> None);
    }
  in
  ignore self;
  { Slpdas_gcn.init; actions = [ go; forward ]; spontaneous = [] }

let scale_cmd =
  let run dim seed cells domains until couple json =
    (* Wall-clock reads here only feed the human-readable progress report;
       the --json observables (what scale-smoke diffs) carry no timings. *)
    let wall f =
      (* slp-lint: allow wall-clock *)
      let t0 = Unix.gettimeofday () in
      let v = f () in
      (* slp-lint: allow wall-clock *)
      (v, Unix.gettimeofday () -. t0)
    in
    let topo, topo_s = wall (fun () -> topology_of_dim dim) in
    let g = topo.Slpdas_wsn.Topology.graph in
    let sink = topo.Slpdas_wsn.Topology.sink in
    let n = Slpdas_wsn.Graph.n g in
    Format.printf "grid %dx%d: %d nodes, %d edges (built in %.3f s)@." dim dim
      n
      (Slpdas_wsn.Graph.num_edges g)
      topo_s;
    (* Compact builder: the minutes-scale paper fixpoint is the bench's
       job (BENCH_scale.json); the CLI knob stays seconds-scale. *)
    let das, build_s =
      wall (fun () ->
          Slpdas_core.Das_build.build_compact
            ~rng:(Slpdas_util.Rng.create seed) g ~sink)
    in
    let schedule = das.Slpdas_core.Das_build.schedule in
    let strong = Slpdas_core.Das_check.check_strong g schedule in
    Format.printf "DAS (compact builder): %.3f s; period length %d; %s@."
      build_s
      (Slpdas_core.Das_build.schedule_length schedule)
      (match strong with
      | [] -> "strong DAS OK"
      | vs -> Printf.sprintf "%d strong-DAS violation(s)" (List.length vs));
    let attacker = Slpdas_core.Attacker.canonical ~start:sink in
    let verdict, verify_s =
      wall (fun () ->
          Slpdas_core.Verifier.verify g schedule ~attacker
            ~safety_period:(2 * n)
            ~source:topo.Slpdas_wsn.Topology.source)
    in
    let outcome =
      match verdict with
      | Slpdas_core.Verifier.Safe -> "safe"
      | Slpdas_core.Verifier.Captured { periods; _ } ->
        Printf.sprintf "captured@%d" periods
    in
    Format.printf "attacker run (Algorithm 1, safety 2n): %.4f s; %s@."
      verify_s outcome;
    let plan = Slpdas_sim.Shard.plan ~cells_x:cells ~cells_y:cells topo in
    if couple then begin
      let (_, merged), shard_s =
        wall (fun () ->
            Slpdas_sim.Shard.run_coupled ?domains plan
              ~link:Slpdas_sim.Link_model.Ideal ~seed
              ~program:scale_wave_program ~until)
      in
      Format.printf
        "coupled run: %d cells (%d cut links, %d boundary nodes), %.1f s sim \
         in %.3f s wall; %d broadcasts, %d deliveries@."
        (Array.length plan.Slpdas_sim.Shard.cells)
        plan.Slpdas_sim.Shard.cut_links
        (Slpdas_sim.Shard.boundary_nodes plan)
        until shard_s merged.Slpdas_sim.Event.broadcasts
        merged.Slpdas_sim.Event.deliveries;
      match json with
      | None -> ()
      | Some path ->
        (* Coupled observables are cell-count- and domain-count-invariant
           (byte-identical to the unsharded sequential engine), so the JSON
           carries only decomposition-free facts — make couple-smoke diffs
           exactly this file across --cells and --domains. *)
        let oc = open_out path in
        Printf.fprintf oc
          "{\"dim\": %d, \"nodes\": %d, \"edges\": %d, \"period_length\": %d, \
           \"strong_violations\": %d, \"verify_outcome\": %S, \"coupled\": %s}\n"
          dim n
          (Slpdas_wsn.Graph.num_edges g)
          (Slpdas_core.Das_build.schedule_length schedule)
          (List.length strong) outcome
          (Slpdas_sim.Event.to_json merged);
        close_out oc;
        Format.printf "scale: wrote %s@." path
    end
    else begin
      let (per_cell, merged), shard_s =
        wall (fun () ->
            Slpdas_sim.Shard.run ?domains plan
              ~link:Slpdas_sim.Link_model.Ideal ~seed
              ~program:(fun ~cell:_ ~self -> scale_wave_program ~self)
              ~until)
      in
      Format.printf
        "sharded run: %d cells (%d cut links, %d cut arcs), %.1f s sim in \
         %.3f s wall; %d broadcasts, %d deliveries@."
        (Array.length plan.Slpdas_sim.Shard.cells)
        plan.Slpdas_sim.Shard.cut_links plan.Slpdas_sim.Shard.cut_arcs until
        shard_s merged.Slpdas_sim.Event.broadcasts
        merged.Slpdas_sim.Event.deliveries;
      match json with
      | None -> ()
      | Some path ->
        (* Deterministic observables only (no timings): the same file must be
           byte-identical for every --domains value — make scale-smoke diffs
           exactly this. *)
        let boundary =
          String.concat ", "
            (Array.to_list
               (Array.map
                  (fun c -> string_of_int c.Slpdas_sim.Shard.boundary_nodes)
                  plan.Slpdas_sim.Shard.cells))
        in
        let oc = open_out path in
        Printf.fprintf oc
          "{\"dim\": %d, \"nodes\": %d, \"edges\": %d, \"period_length\": %d, \
           \"strong_violations\": %d, \"verify_outcome\": %S, \"cells\": %d, \
           \"cut_edges\": %d, \"cut_links\": %d, \"cut_arcs\": %d, \
           \"boundary_nodes\": [%s], \"sharded\": %s}\n"
          dim n
          (Slpdas_wsn.Graph.num_edges g)
          (Slpdas_core.Das_build.schedule_length schedule)
          (List.length strong) outcome
          (Array.length plan.Slpdas_sim.Shard.cells)
          plan.Slpdas_sim.Shard.cut_edges plan.Slpdas_sim.Shard.cut_links
          plan.Slpdas_sim.Shard.cut_arcs boundary
          (Slpdas_sim.Shard.counters_json per_cell merged);
        close_out oc;
        Format.printf "scale: wrote %s@." path
    end
  in
  let cells_arg =
    Arg.(
      value
      & opt (int_at_least 1) 4
      & info [ "cells" ] ~docv:"C"
          ~doc:
            "Partition the grid into CxC spatial cells for the sharded run; \
             at least 1.")
  in
  let until_arg =
    Arg.(
      value
      & opt non_negative_float 3.0
      & info [ "until" ] ~docv:"SECS"
          ~doc:"Simulated seconds for the sharded engine run; at least 0.")
  in
  let couple_arg =
    Arg.(
      value & flag
      & info [ "couple" ]
          ~doc:
            "Keep cut edges radio-coupled: run the cells as a conservative \
             parallel discrete-event simulation (lookahead windows, boundary \
             mailboxes) whose observables are byte-identical to the \
             unsharded sequential engine at any $(b,--cells) and \
             $(b,--domains) value.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the run's deterministic observables (schedule facts, \
             verdict, sharded counters; no timings) as JSON to FILE.")
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Large-grid scaling probe: DAS build, attacker verification and a \
          sharded engine run")
    Term.(
      const run $ dim_arg $ seed_arg $ cells_arg $ domains_arg $ until_arg
      $ couple_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                              *)
(* ------------------------------------------------------------------ *)

(* One query per line, whitespace-separated key=value tokens:

     dim=11 seed=1 slp=true sd=3 gap=1 r=1 h=0 m=2 decide=history-avoiding
     dim=11 seed=1 slp=true attacker=global mc=128

   Unknown keys are an error; omitted keys default like the verify
   subcommand's flags ([safety] defaults to Eq. 1 on the line's topology,
   [source] to the topology's source).  [mc=N] (N > 0) switches the line to
   Monte-Carlo certification — mandatory for any non-local [attacker] class,
   whose exhaustive state space explodes.  '#' starts a comment. *)
type serve_query = {
  q_line : int;
  q_dim : int;
  q_seed : int;
  q_slp : bool;
  q_sd : int;
  q_gap : int;
  q_r : int;
  q_h : int;
  q_m : int;
  q_decide : string;
  q_attacker : Slpdas_attack.Model.cls;
  q_mc : int;  (* 0 = exhaustive *)
  q_safety : int option;
  q_source : int option;
}

let parse_serve_query ~line_no line =
  let q =
    ref
      {
        q_line = line_no;
        q_dim = 11;
        q_seed = 1;
        q_slp = false;
        q_sd = 3;
        q_gap = 1;
        q_r = 1;
        q_h = 0;
        q_m = 1;
        q_decide = "lowest-slot";
        q_attacker = Slpdas_attack.Model.Local;
        q_mc = 0;
        q_safety = None;
        q_source = None;
      }
  in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let tokens =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> not (String.equal t ""))
  in
  let parse_int k v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> fail "line %d: %s wants an integer, got %S" line_no k v
  in
  let rec go = function
    | [] -> Ok !q
    | token :: rest ->
      (match String.index_opt token '=' with
      | None -> fail "line %d: expected key=value, got %S" line_no token
      | Some i ->
        let k = String.sub token 0 i in
        let v = String.sub token (i + 1) (String.length token - i - 1) in
        let set_int f = Result.map (fun n -> q := f n) (parse_int k v) in
        let r =
          match k with
          | "dim" -> set_int (fun n -> { !q with q_dim = n })
          | "seed" -> set_int (fun n -> { !q with q_seed = n })
          | "sd" -> set_int (fun n -> { !q with q_sd = n })
          | "gap" -> set_int (fun n -> { !q with q_gap = n })
          | "r" -> set_int (fun n -> { !q with q_r = n })
          | "h" -> set_int (fun n -> { !q with q_h = n })
          | "m" -> set_int (fun n -> { !q with q_m = n })
          | "safety" -> set_int (fun n -> { !q with q_safety = Some n })
          | "source" -> set_int (fun n -> { !q with q_source = Some n })
          | "slp" ->
            (match bool_of_string_opt v with
            | Some b -> Ok (q := { !q with q_slp = b })
            | None -> fail "line %d: slp wants true/false, got %S" line_no v)
          | "decide" ->
            (match Slpdas_serve.Query.decider_of_name v with
            | Some _ -> Ok (q := { !q with q_decide = v })
            | None -> fail "line %d: unknown decider %S" line_no v)
          | "attacker" ->
            (match Slpdas_attack.Model.of_string v with
            | Ok cls -> Ok (q := { !q with q_attacker = cls })
            | Error msg -> fail "line %d: %s" line_no msg)
          | "mc" -> set_int (fun n -> { !q with q_mc = n })
          | _ -> fail "line %d: unknown key %S" line_no k
        in
        Result.bind r (fun () -> go rest))
  in
  (* Bounds are checked here rather than left to the library's
     Invalid_argument: a bad line fails the batch with its line number and
     exit 2. *)
  let below key ~low v =
    fail "line %d: %s must be >= %d, got %d" line_no key low v
  in
  Result.bind (go tokens) (fun q ->
      let nodes = q.q_dim * q.q_dim in
      if q.q_dim < 2 then below "dim" ~low:2 q.q_dim
      else if q.q_r < 1 then below "r" ~low:1 q.q_r
      else if q.q_h < 0 then below "h" ~low:0 q.q_h
      else if q.q_m < 1 then below "m" ~low:1 q.q_m
      else if q.q_mc < 0 then below "mc" ~low:0 q.q_mc
      else if q.q_slp && q.q_sd < 1 then below "sd" ~low:1 q.q_sd
      else if q.q_slp && q.q_gap < 1 then below "gap" ~low:1 q.q_gap
      else
        match (q.q_safety, q.q_source) with
        | Some p, _ when p < 0 -> below "safety" ~low:0 p
        | _, Some v when v < 0 || v >= nodes ->
          fail "line %d: source must be a node 0..%d of the %dx%d grid, got %d"
            line_no (nodes - 1) q.q_dim q.q_dim v
        | _ when q.q_attacker <> Slpdas_attack.Model.Local && q.q_mc = 0 ->
          fail "line %d: attacker=%s requires mc=<trials> (> 0)" line_no
            (Slpdas_attack.Model.to_string q.q_attacker)
        | _ -> Ok q)

type serve_job =
  | Exhaustive of Slpdas_serve.Batch.item
  | Mc of Slpdas_serve.Batch.mc_item

let serve_job sq =
  let topo = topology_of_dim sq.q_dim in
  let g = topo.Slpdas_wsn.Topology.graph in
  let schedule, _ =
    build_schedule ~topo ~seed:sq.q_seed ~slp:sq.q_slp ~sd:sq.q_sd
      ~gap:sq.q_gap
  in
  let decider =
    (* parse_serve_query already validated the name *)
    Option.get (Slpdas_serve.Query.decider_of_name sq.q_decide)
  in
  let attacker =
    Slpdas_serve.Query.make_attacker decider ~r:sq.q_r ~h:sq.q_h ~m:sq.q_m
      ~start:topo.Slpdas_wsn.Topology.sink
  in
  let safety_period =
    match sq.q_safety with
    | Some p -> p
    | None ->
      Slpdas_core.Safety.safety_periods
        ~delta_ss:(Slpdas_wsn.Topology.source_sink_distance topo) ()
  in
  let source =
    Option.value sq.q_source ~default:topo.Slpdas_wsn.Topology.source
  in
  if sq.q_mc > 0 then
    Mc
      {
        Slpdas_serve.Batch.mc_graph = g;
        mc_schedule = schedule;
        cls = sq.q_attacker;
        mc_attacker = attacker;
        trials = sq.q_mc;
        seed = sq.q_seed;
        mc_safety_period = safety_period;
        mc_source = source;
      }
  else
    Exhaustive
      { Slpdas_serve.Batch.graph = g; schedule; attacker; safety_period;
        source }

type serve_answer =
  | Exhaustive_answer of Slpdas_serve.Query.answer
  | Mc_answer of Slpdas_attack.Mc_verify.result

let print_serve_answer sq answer =
  match answer with
  | Exhaustive_answer a ->
    (match a.Slpdas_serve.Query.outcome with
    | Slpdas_core.Verifier.Safe ->
      Printf.printf "{\"line\": %d, \"outcome\": \"safe\", \"explored\": %d}\n"
        sq.q_line a.Slpdas_serve.Query.explored
    | Slpdas_core.Verifier.Captured { trace; periods } ->
      Printf.printf
        "{\"line\": %d, \"outcome\": \"captured\", \"periods\": %d, \
         \"explored\": %d, \"trace\": [%s]}\n"
        sq.q_line periods a.Slpdas_serve.Query.explored
        (String.concat ", " (List.map string_of_int trace)))
  | Mc_answer r ->
    Printf.printf
      "{\"line\": %d, \"attacker\": %S, \"trials\": %d, \"captures\": %d, \
       \"p_hat\": %.6f, \"wilson_low\": %.6f, \"wilson_high\": %.6f, \
       \"min_periods\": %s}\n"
      sq.q_line
      (Slpdas_attack.Model.to_string sq.q_attacker)
      r.Slpdas_attack.Mc_verify.trials r.Slpdas_attack.Mc_verify.captures
      r.Slpdas_attack.Mc_verify.p_hat r.Slpdas_attack.Mc_verify.wilson_low
      r.Slpdas_attack.Mc_verify.wilson_high
      (match r.Slpdas_attack.Mc_verify.min_periods with
      | None -> "null"
      | Some p -> string_of_int p)

let serve_cmd =
  let run file cache_dir domains =
    let ic, close =
      match file with
      | None | Some "-" -> (stdin, fun () -> ())
      | Some path ->
        let ic = open_in path in
        (ic, fun () -> close_in ic)
    in
    let queries = ref [] in
    let line_no = ref 0 in
    (try
       while true do
         let line = input_line ic in
         incr line_no;
         let trimmed = String.trim line in
         if
           (not (String.equal trimmed ""))
           && not (String.length trimmed > 0 && trimmed.[0] = '#')
         then begin
           match parse_serve_query ~line_no:!line_no trimmed with
           | Ok q -> queries := q :: !queries
           | Error msg ->
             close ();
             prerr_endline msg;
             exit 2
         end
       done
     with End_of_file -> close ());
    let queries = List.rev !queries in
    let jobs = List.map serve_job queries in
    let service = Slpdas_serve.Service.create ?cache_dir () in
    let domains =
      match domains with Some d -> d | None -> Slpdas_util.Pool.recommended ()
    in
    (* Fan each kind through its own batch (both keep cache traffic in this
       domain), then reinterleave answers into input line order. *)
    let exhaustive_rev = ref [] and mc_rev = ref [] in
    List.iter
      (fun job ->
        match job with
        | Exhaustive it -> exhaustive_rev := it :: !exhaustive_rev
        | Mc it -> mc_rev := it :: !mc_rev)
      jobs;
    let exhaustive_answers =
      ref
        (Slpdas_serve.Batch.run_many ~domains service
           (List.rev !exhaustive_rev))
    in
    let mc_answers =
      ref (Slpdas_serve.Batch.run_many_mc ~domains service (List.rev !mc_rev))
    in
    let answers =
      List.map
        (fun job ->
          match job with
          | Exhaustive _ ->
            let a = List.hd !exhaustive_answers in
            exhaustive_answers := List.tl !exhaustive_answers;
            Exhaustive_answer a
          | Mc _ ->
            let a = List.hd !mc_answers in
            mc_answers := List.tl !mc_answers;
            Mc_answer a)
        jobs
    in
    List.iter2 print_serve_answer queries answers;
    (* Stats go to stderr: stdout carries only the semantic answers, so a
       warm rerun is byte-identical to a cold one. *)
    let s = Slpdas_serve.Service.stats service in
    Printf.eprintf
      "serve: %d queries, %d verified, %d memory hits, %d disk hits\n"
      s.Slpdas_serve.Service.served s.Slpdas_serve.Service.computed
      (s.Slpdas_serve.Service.cache.Slpdas_serve.Cache.hits
      + s.Slpdas_serve.Service.mc.Slpdas_serve.Cache.hits)
      (s.Slpdas_serve.Service.cache.Slpdas_serve.Cache.disk_hits
      + s.Slpdas_serve.Service.mc.Slpdas_serve.Cache.disk_hits)
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Query file, one key=value query per line ('-' or absent: \
             stdin).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Answer batched verification queries (JSON lines) through the \
          cached service")
    Term.(const run $ file_arg $ cache_dir_arg $ domains_arg)

(* ------------------------------------------------------------------ *)
(* tune                                                               *)
(* ------------------------------------------------------------------ *)

let tune_cmd =
  let r_arg, h_arg, m_arg = attacker_args in
  let run dim seed gap r h m budget restarts max_evals cache_dir =
    let topo = topology_of_dim dim in
    let g = topo.Slpdas_wsn.Topology.graph in
    let das = build_das ~topo ~seed in
    let attacker =
      Slpdas_core.Attacker.make ~r ~h ~m ~start:topo.Slpdas_wsn.Topology.sink ()
    in
    let delta_ss = Slpdas_wsn.Topology.source_sink_distance topo in
    let service = Slpdas_serve.Service.create ?cache_dir () in
    let result =
      Slpdas_serve.Tuner.tune ~seed ~restarts ~max_evals ~gap service g ~das
        ~attacker ~source:topo.Slpdas_wsn.Topology.source ~delta_ss
        ~budget_joules:budget
    in
    let rows =
      List.map
        (fun (e : Slpdas_serve.Tuner.eval) ->
          [
            string_of_int e.Slpdas_serve.Tuner.point.Slpdas_serve.Tuner.sd;
            string_of_int e.Slpdas_serve.Tuner.point.Slpdas_serve.Tuner.cl;
            (if e.Slpdas_serve.Tuner.feasible then "yes" else "no");
            string_of_int e.Slpdas_serve.Tuner.delta;
            Printf.sprintf "%.4f" e.Slpdas_serve.Tuner.energy_joules;
            (if e.Slpdas_serve.Tuner.within_budget then "yes" else "no");
          ])
        result.Slpdas_serve.Tuner.evals
    in
    print_string
      (Slpdas_util.Tabular.render
         ~header:[ "SD"; "CL"; "feasible"; "delta"; "energy J"; "in budget" ]
         rows);
    (match result.Slpdas_serve.Tuner.best with
    | None ->
      Format.printf
        "no feasible refinement within %.4f J (delta_ss=%d)@." budget delta_ss
    | Some (e, _sched) ->
      Format.printf
        "best: SD=%d CL=%d with certified delta %d at %.4f J (budget %.4f J)@."
        e.Slpdas_serve.Tuner.point.Slpdas_serve.Tuner.sd
        e.Slpdas_serve.Tuner.point.Slpdas_serve.Tuner.cl
        e.Slpdas_serve.Tuner.delta e.Slpdas_serve.Tuner.energy_joules budget);
    let s = Slpdas_serve.Service.stats service in
    Format.printf "service: %d queries, %d verified, %d cache hits@."
      s.Slpdas_serve.Service.served s.Slpdas_serve.Service.computed
      (s.Slpdas_serve.Service.cache.Slpdas_serve.Cache.hits
      + s.Slpdas_serve.Service.cache.Slpdas_serve.Cache.disk_hits)
  in
  let budget_arg =
    Arg.(
      value
      & opt non_negative_float 0.05
      & info [ "budget" ] ~docv:"JOULES"
          ~doc:"Refinement energy budget in Joules; at least 0.")
  in
  let restarts_arg =
    Arg.(
      value
      & opt (int_at_least 0) 2
      & info [ "restarts" ] ~docv:"N"
          ~doc:"Seeded hill-climb restarts; at least 0.")
  in
  let max_evals_arg =
    Arg.(
      value
      & opt (int_at_least 1) 40
      & info [ "max-evals" ] ~docv:"N"
          ~doc:"Distinct (SD, CL) points to evaluate at most; at least 1.")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search the (SD, CL) refinement space for the max-delta schedule \
          within an energy budget")
    Term.(
      const run $ dim_arg $ seed_arg $ gap_arg $ r_arg $ h_arg $ m_arg
      $ budget_arg $ restarts_arg $ max_evals_arg $ cache_dir_arg)

let () =
  let info =
    Cmd.info "slp_das_cli" ~version:"1.0.0"
      ~doc:"Source-location-privacy-aware data aggregation scheduling"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            topology_cmd;
            schedule_cmd;
            coverage_cmd;
            verify_cmd;
            simulate_cmd;
            phantom_cmd;
            fake_cmd;
            sector_cmd;
            chaos_cmd;
            experiment_cmd;
            scale_cmd;
            serve_cmd;
            tune_cmd;
          ]))
