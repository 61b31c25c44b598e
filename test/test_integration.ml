(* Cross-cutting integration scenarios: whole-pipeline runs exercising
   several libraries together, beyond what the per-module suites cover. *)

module Topology = Slpdas_wsn.Topology
module Rng = Slpdas_util.Rng
module Link_model = Slpdas_sim.Link_model
module Protocol = Slpdas_core.Protocol
module Runner = Slpdas_exp.Runner
module Params = Slpdas_exp.Params

let runner_config ?(mode = Protocol.Protectionless) ?(link = Link_model.Ideal)
    ?airtime ~seed topo =
  { (Runner.default_config ~topology:topo ~mode ~seed) with
    Runner.link; airtime }

(* ------------------------------------------------------------------ *)
(* Full pipeline under non-ideal conditions                           *)
(* ------------------------------------------------------------------ *)

let test_pipeline_slp_15x15 () =
  let topo = Topology.grid 15 in
  let r = Runner.run (runner_config ~mode:Protocol.Slp ~seed:11 topo) in
  Alcotest.(check bool) "complete" true r.Runner.complete;
  Alcotest.(check bool) "weak DAS" true r.Runner.weak_das;
  Alcotest.(check int) "dss" 14 r.Runner.delta_ss;
  (* Whatever the capture outcome, sim and verifier agree on it. *)
  let sp = Slpdas_core.Safety.safety_periods ~delta_ss:14 () in
  let verdict =
    Slpdas_core.Verifier.verify topo.Topology.graph r.Runner.schedule
      ~attacker:(Slpdas_core.Attacker.canonical ~start:topo.Topology.sink)
      ~safety_period:sp ~source:topo.Topology.source
  in
  Alcotest.(check bool) "sim/verifier agreement" r.Runner.captured
    (verdict <> Slpdas_core.Verifier.Safe)

let test_pipeline_lossy_and_airtime () =
  (* 10% link loss plus destructive interference: setup must still converge
     to a weak DAS and data must still flow. *)
  let topo = Topology.grid 7 in
  let r =
    Runner.run
      (runner_config ~mode:Protocol.Slp ~link:(Link_model.Lossy 0.1)
         ~airtime:0.002 ~seed:5 topo)
  in
  Alcotest.(check bool) "complete" true r.Runner.complete;
  Alcotest.(check bool) "weak DAS" true r.Runner.weak_das;
  (* Convergecast has no retransmissions: each reading must survive every
     hop, so ~dss-hop paths at 10% loss deliver roughly 0.9^6 = 53% of
     readings, less interference losses. *)
  Alcotest.(check bool)
    (Printf.sprintf "data flowed (ratio %.2f)" r.Runner.delivery_ratio)
    true
    (r.Runner.delivery_ratio > 0.25)

let test_pipeline_gaussian_links () =
  let topo = Topology.grid 7 in
  let r =
    Runner.run
      (runner_config ~link:Link_model.default_gaussian ~seed:6 topo)
  in
  Alcotest.(check bool) "complete under SNR model" true r.Runner.complete;
  Alcotest.(check bool) "strong DAS" true r.Runner.strong_das

let test_pipeline_unit_disk_topology () =
  (* The full distributed stack on an irregular deployment. *)
  let rng = Rng.create 41 in
  match
    Topology.random_unit_disk rng ~n:60 ~side:50.0 ~range:12.0 ~max_attempts:50
  with
  | None -> Alcotest.fail "no connected placement"
  | Some topo ->
    let r = Runner.run (runner_config ~mode:Protocol.Slp ~seed:3 topo) in
    Alcotest.(check bool) "complete" true r.Runner.complete;
    Alcotest.(check bool) "weak DAS" true r.Runner.weak_das

(* ------------------------------------------------------------------ *)
(* Consistency between components                                     *)
(* ------------------------------------------------------------------ *)

let test_event_log_matches_message_counter () =
  let topo = Topology.grid 5 in
  let config =
    Params.protocol_config Params.default ~mode:Protocol.Protectionless
      ~sink:topo.Topology.sink ~delta_ss:4 ~seed:2
  in
  let normal_start = Protocol.normal_start config in
  let total = ref 0 and setup = ref 0 in
  let scenario =
    Slpdas_exp.Scenario.with_monitor
      (fun engine ->
        Slpdas_sim.Engine.subscribe engine (function
          | Slpdas_sim.Event.Broadcast { time; _ } ->
            incr total;
            if time < normal_start then incr setup
          | _ -> ()))
      (Runner.scenario (runner_config ~seed:2 topo))
  in
  let r = Slpdas_exp.Harness.run scenario in
  Alcotest.(check int) "observed broadcasts = total transmissions"
    r.Runner.total_messages !total;
  (* The log's setup-phase prefix matches the setup counter. *)
  Alcotest.(check int) "setup prefix" r.Runner.setup_messages !setup

let test_energy_consistent_with_counters () =
  let topo = Topology.grid 5 in
  let r = Runner.run (runner_config ~seed:4 topo) in
  let report =
    Slpdas_exp.Energy.of_broadcasts topo.Topology.graph
      ~broadcasts_by_node:r.Runner.broadcasts_by_node
  in
  let total_tx = Array.fold_left ( + ) 0 r.Runner.broadcasts_by_node in
  Alcotest.(check int) "per-node counts sum to the total" r.Runner.total_messages
    total_tx;
  (* Energy is bounded below by pure transmit cost and above by transmit
     plus max-degree receptions. *)
  let tx = Slpdas_exp.Energy.cc2420.Slpdas_exp.Energy.tx_joules_per_packet in
  let rx = Slpdas_exp.Energy.cc2420.Slpdas_exp.Energy.rx_joules_per_packet in
  let lower = float_of_int total_tx *. tx in
  let upper = float_of_int total_tx *. (tx +. (4.0 *. rx)) in
  Alcotest.(check bool) "energy within physical bounds" true
    (report.Slpdas_exp.Energy.total_joules >= lower
    && report.Slpdas_exp.Energy.total_joules <= upper +. 1e-9)

let test_coverage_consistent_with_verify () =
  let topo = Topology.grid 7 in
  let r = Runner.run (runner_config ~seed:9 topo) in
  let attacker = Slpdas_core.Attacker.canonical ~start:topo.Topology.sink in
  let coverage =
    Slpdas_core.Coverage.analyse topo.Topology.graph r.Runner.schedule ~attacker
  in
  (* Spot-check three sources against direct verification. *)
  List.iter
    (fun source ->
      let verdict =
        List.find
          (fun v -> v.Slpdas_core.Coverage.source = source)
          coverage.Slpdas_core.Coverage.verdicts
      in
      let direct =
        Slpdas_core.Verifier.verify topo.Topology.graph r.Runner.schedule
          ~attacker ~safety_period:verdict.Slpdas_core.Coverage.safety_period
          ~source
      in
      Alcotest.(check bool)
        (Printf.sprintf "source %d consistent" source)
        (verdict.Slpdas_core.Coverage.outcome = Slpdas_core.Verifier.Safe)
        (direct = Slpdas_core.Verifier.Safe))
    [ 0; 6; 42 ]

let test_serialized_schedule_verifies_identically () =
  let topo = Topology.grid 7 in
  let r = Runner.run (runner_config ~mode:Protocol.Slp ~seed:12 topo) in
  let text = Slpdas_core.Schedule.to_string r.Runner.schedule in
  match Slpdas_core.Schedule.of_string text with
  | Error reason -> Alcotest.failf "parse: %s" reason
  | Ok parsed ->
    let attacker = Slpdas_core.Attacker.canonical ~start:topo.Topology.sink in
    let sp = Slpdas_core.Safety.safety_periods ~delta_ss:6 () in
    let verdict s =
      Slpdas_core.Verifier.verify topo.Topology.graph s ~attacker
        ~safety_period:sp ~source:topo.Topology.source
    in
    Alcotest.(check bool) "same verdict through the wire" true
      (verdict r.Runner.schedule = verdict parsed)

(* ------------------------------------------------------------------ *)
(* The three protocol families deliver on the same network            *)
(* ------------------------------------------------------------------ *)

let test_all_protocols_deliver () =
  let topo = Topology.grid 7 in
  let das = Runner.run (runner_config ~seed:21 topo) in
  Alcotest.(check bool) "DAS delivers" true (das.Runner.delivery_ratio > 0.7);
  let phantom =
    Slpdas_exp.Phantom_runner.run
      {
        topology = topo;
        walk_length = 4;
        direction = Slpdas_core.Phantom.Compass;
        link = Link_model.Ideal;
        seed = 21;
      }
  in
  Alcotest.(check bool) "phantom delivers" true
    (phantom.Slpdas_exp.Phantom_runner.delivered
    >= phantom.Slpdas_exp.Phantom_runner.source_messages - 1);
  let fake =
    Slpdas_exp.Fake_runner.run
      {
        topology = topo;
        fake_sources = Slpdas_core.Fake_source.opposite_corners topo ~dim:7;
        fake_rate_multiplier = 1.0;
        link = Link_model.Ideal;
        seed = 21;
      }
  in
  Alcotest.(check bool) "fake-source network delivers real data" true
    (fake.Slpdas_exp.Fake_runner.real_delivered >= 3)

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "SLP on 15x15" `Slow test_pipeline_slp_15x15;
          Alcotest.test_case "lossy + interference" `Slow
            test_pipeline_lossy_and_airtime;
          Alcotest.test_case "gaussian links" `Slow test_pipeline_gaussian_links;
          Alcotest.test_case "unit-disk topology" `Slow
            test_pipeline_unit_disk_topology;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "trace vs counters" `Quick
            test_event_log_matches_message_counter;
          Alcotest.test_case "energy vs counters" `Quick
            test_energy_consistent_with_counters;
          Alcotest.test_case "coverage vs verify" `Quick
            test_coverage_consistent_with_verify;
          Alcotest.test_case "serialization preserves verdicts" `Quick
            test_serialized_schedule_verifies_identically;
        ] );
      ( "protocol-families",
        [ Alcotest.test_case "all deliver" `Slow test_all_protocols_deliver ] );
    ]
