(* Tests for the generic Scenario/Harness execution path: the three runner
   adapters must behave identically under sequential [run], [run_many ~domains:1]
   and [run_many] with several domains, and the event-bus aggregates must be
   deterministic and independent of the fan-out width. *)

module Topology = Slpdas_wsn.Topology
module Protocol = Slpdas_core.Protocol
module Link_model = Slpdas_sim.Link_model
module Event = Slpdas_sim.Event
module Runner = Slpdas_exp.Runner
module Phantom_runner = Slpdas_exp.Phantom_runner
module Fake_runner = Slpdas_exp.Fake_runner
module Harness = Slpdas_exp.Harness
module Scenario = Slpdas_exp.Scenario

let topo = Topology.grid 7

let das_configs =
  List.map
    (fun seed ->
      {
        (Runner.default_config ~topology:topo ~mode:Protocol.Slp ~seed) with
        Runner.link = Link_model.Lossy 0.05;
      })
    [ 1; 2; 3; 4 ]

let phantom_configs =
  List.map
    (fun seed ->
      {
        Phantom_runner.topology = topo;
        walk_length = 4;
        direction = Slpdas_core.Phantom.Compass;
        link = Link_model.Ideal;
        seed;
      })
    [ 1; 2; 3; 4 ]

let sector_configs =
  List.map
    (fun c -> { c with Phantom_runner.direction = Slpdas_core.Phantom.Sectors 8 })
    phantom_configs

let fake_configs =
  List.map
    (fun seed ->
      {
        Fake_runner.topology = topo;
        fake_sources = Slpdas_core.Fake_source.opposite_corners topo ~dim:7;
        fake_rate_multiplier = 1.0;
        link = Link_model.Ideal;
        seed;
      })
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* run_many = List.map run, for every runner                          *)
(* ------------------------------------------------------------------ *)

let test_das_run_many_matches_sequential () =
  let sequential = List.map Runner.run das_configs in
  let fanned = Runner.run_many ~domains:3 das_configs in
  Alcotest.(check bool) "identical per-seed results" true (sequential = fanned)

let test_phantom_run_many_matches_sequential () =
  let sequential = List.map (fun c -> Phantom_runner.run c) phantom_configs in
  let fanned = Phantom_runner.run_many ~domains:3 phantom_configs in
  Alcotest.(check bool) "identical per-seed results" true (sequential = fanned)

let test_sector_run_many_matches_sequential () =
  let sequential = List.map (fun c -> Phantom_runner.run c) sector_configs in
  let fanned = Phantom_runner.run_many ~domains:3 sector_configs in
  Alcotest.(check bool) "identical per-seed results" true (sequential = fanned)

let test_fake_run_many_matches_sequential () =
  let sequential = List.map (fun c -> Fake_runner.run c) fake_configs in
  let fanned = Fake_runner.run_many ~domains:3 fake_configs in
  Alcotest.(check bool) "identical per-seed results" true (sequential = fanned)

(* ------------------------------------------------------------------ *)
(* Event aggregates are independent of the domain count               *)
(* ------------------------------------------------------------------ *)

let test_das_counters_domain_invariant () =
  let r1, c1 = Runner.run_many_with_events ~domains:1 das_configs in
  let r4, c4 = Runner.run_many_with_events ~domains:4 das_configs in
  Alcotest.(check bool) "results identical" true (r1 = r4);
  Alcotest.(check bool) "merged counters identical" true (c1 = c4);
  Alcotest.(check string) "json byte-identical" (Event.to_json c1)
    (Event.to_json c4);
  Alcotest.(check int) "one runs entry per config" (List.length das_configs)
    c1.Event.runs

let test_phantom_counters_domain_invariant () =
  let _, c1 = Phantom_runner.run_many_with_events ~domains:1 phantom_configs in
  let _, c3 = Phantom_runner.run_many_with_events ~domains:3 phantom_configs in
  Alcotest.(check bool) "merged counters identical" true (c1 = c3)

let test_fake_counters_domain_invariant () =
  let _, c1 = Fake_runner.run_many_with_events ~domains:1 fake_configs in
  let _, c3 = Fake_runner.run_many_with_events ~domains:3 fake_configs in
  Alcotest.(check bool) "merged counters identical" true (c1 = c3)

(* ------------------------------------------------------------------ *)
(* Counters agree with the runner's own metrics                       *)
(* ------------------------------------------------------------------ *)

let test_counters_match_result_metrics () =
  let config = List.hd das_configs in
  let r, c = Runner.run_with_events config in
  Alcotest.(check int) "broadcasts = total_messages" r.Runner.total_messages
    c.Event.broadcasts;
  Alcotest.(check int) "single run" 1 c.Event.runs;
  (* The DAS scenario announces "setup" at t=0 and "normal" at source
     activation. *)
  Alcotest.(check int) "two phase transitions" 2 c.Event.phase_transitions;
  (* Every hop of the attacker's path is one Attacker_move event. *)
  Alcotest.(check int) "moves = path hops"
    (List.length r.Runner.attacker_path - 1)
    c.Event.attacker_moves

let test_hunter_moves_match_path () =
  let config = List.hd phantom_configs in
  let r, c = Phantom_runner.run_with_events config in
  Alcotest.(check int) "moves = path hops"
    (List.length r.Phantom_runner.attacker_path - 1)
    c.Event.attacker_moves

(* ------------------------------------------------------------------ *)
(* Monitors (the ?instrument replacement)                             *)
(* ------------------------------------------------------------------ *)

let test_monitor_runs_before_attach () =
  (* A monitor subscribed via with_monitor sees every broadcast of the run,
     exactly like the old instrument-attached trace. *)
  let seen = ref 0 in
  let scenario =
    Scenario.with_monitor
      (fun engine ->
        Slpdas_sim.Engine.subscribe engine (function
          | Event.Broadcast _ -> incr seen
          | _ -> ()))
      (Runner.scenario (List.hd das_configs))
  in
  let r = Harness.run scenario in
  Alcotest.(check int) "monitor saw every transmission"
    r.Runner.total_messages !seen

let test_monitor_does_not_change_result () =
  let plain = Runner.run (List.hd das_configs) in
  let monitored =
    Harness.run
      (Scenario.with_monitor
         (fun engine -> Slpdas_sim.Engine.subscribe engine (fun _ -> ()))
         (Runner.scenario (List.hd das_configs)))
  in
  Alcotest.(check bool) "bit-identical result" true (plain = monitored)

let test_map_result () =
  let captured =
    Harness.run
      (Scenario.map_result
         (fun r -> r.Runner.captured)
         (Runner.scenario (List.hd das_configs)))
  in
  Alcotest.(check bool) "projection applied"
    (Runner.run (List.hd das_configs)).Runner.captured captured

let () =
  Alcotest.run "harness"
    [
      ( "equivalence",
        [
          Alcotest.test_case "das run_many = map run" `Slow
            test_das_run_many_matches_sequential;
          Alcotest.test_case "phantom run_many = map run" `Quick
            test_phantom_run_many_matches_sequential;
          Alcotest.test_case "sector phantom run_many = map run" `Quick
            test_sector_run_many_matches_sequential;
          Alcotest.test_case "fake run_many = map run" `Quick
            test_fake_run_many_matches_sequential;
        ] );
      ( "event aggregation",
        [
          Alcotest.test_case "das counters domain-invariant" `Slow
            test_das_counters_domain_invariant;
          Alcotest.test_case "phantom counters domain-invariant" `Quick
            test_phantom_counters_domain_invariant;
          Alcotest.test_case "fake counters domain-invariant" `Quick
            test_fake_counters_domain_invariant;
          Alcotest.test_case "counters vs result metrics" `Quick
            test_counters_match_result_metrics;
          Alcotest.test_case "hunter moves vs path" `Quick
            test_hunter_moves_match_path;
        ] );
      ( "monitors",
        [
          Alcotest.test_case "monitor coverage" `Quick
            test_monitor_runs_before_attach;
          Alcotest.test_case "monitor neutrality" `Quick
            test_monitor_does_not_change_result;
          Alcotest.test_case "map_result" `Quick test_map_result;
        ] );
    ]
