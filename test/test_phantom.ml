(* Tests for the phantom-routing baseline (Slpdas_core.Phantom) and its
   runner. *)

module Topology = Slpdas_wsn.Topology
module Graph = Slpdas_wsn.Graph
module Rng = Slpdas_util.Rng
module Engine = Slpdas_sim.Engine
module Link_model = Slpdas_sim.Link_model
module Phantom = Slpdas_core.Phantom
module Phantom_runner = Slpdas_exp.Phantom_runner

let run_engine ?(walk_length = 0) ?(seed = 1) ?(until = 30.0) topo =
  let config =
    { (Phantom.default_config ~topology:topo ~walk_length) with run_seed = seed }
  in
  let engine =
    Engine.create ~topology:topo ~link:Link_model.Ideal
      ~rng:(Rng.create (seed + 13))
      ~program:(Phantom.program config) ()
  in
  Engine.run_until engine until;
  (config, engine)

let test_message_id () =
  Alcotest.(check (option int)) "hello opaque" None (Phantom.message_id Phantom.Hello);
  Alcotest.(check (option int)) "walk id" (Some 3)
    (Phantom.message_id (Phantom.Walk { id = 3; ttl = 1; target = 0; dir = (1., 0.) }));
  Alcotest.(check (option int)) "flood id" (Some 7)
    (Phantom.message_id (Phantom.Flood { id = 7 }))

let test_flood_delivers_every_message () =
  let topo = Topology.grid 5 in
  (* Source period 5.5s from t=5: messages at 5, 10.5, 16, 21.5, 27. *)
  let _config, engine = run_engine ~until:30.0 topo in
  let sink_state = Engine.node_state engine topo.Topology.sink in
  Alcotest.(check (list int)) "all five messages, in order" [ 0; 1; 2; 3; 4 ]
    (Phantom.sink_received sink_state)

let test_flood_message_count () =
  (* Pure flooding: every node transmits each message exactly once. *)
  let topo = Topology.grid 5 in
  let _config, engine = run_engine ~until:10.0 topo in
  (* One message flooded (at t=5); 3 hellos per node during discovery; every
     node except the sink (which only records) forwards the flood once. *)
  let n = Graph.n topo.Topology.graph in
  Alcotest.(check int) "hellos + one flood wave" ((3 * n) + n - 1)
    (Engine.broadcasts engine)

let test_walk_reaches_phantom_then_floods () =
  let topo = Topology.grid 7 in
  let _config, engine = run_engine ~walk_length:4 ~until:10.0 topo in
  let sink_state = Engine.node_state engine topo.Topology.sink in
  Alcotest.(check (list int)) "delivered despite the walk" [ 0 ]
    (Phantom.sink_received sink_state);
  (* Walk hops add to the flood's node count: strictly more transmissions
     than hellos + flood. *)
  let n = Graph.n topo.Topology.graph in
  Alcotest.(check bool) "walk added transmissions" true
    (Engine.broadcasts engine > (3 * n) + n)

let test_walk_zero_equals_flood_traffic () =
  let topo = Topology.grid 5 in
  let _c1, e1 = run_engine ~walk_length:0 ~until:12.0 topo in
  let _c2, e2 = run_engine ~walk_length:6 ~until:12.0 topo in
  Alcotest.(check bool) "phantom costs more" true
    (Engine.broadcasts e2 > Engine.broadcasts e1)

let test_deduplication () =
  (* Each node forwards a flood id at most once even though it hears it from
     several neighbours. *)
  let topo = Topology.grid 5 in
  let _config, engine = run_engine ~until:10.0 topo in
  Array.iteri
    (fun v count ->
      (* 3 hellos + at most 1 flood forward per node. *)
      Alcotest.(check bool) (Printf.sprintf "node %d bounded" v) true (count <= 4))
    (Engine.broadcasts_by_node engine)

let test_runner_flood_always_captures () =
  (* §II: against flooding, back-tracing wins; the wavefront points at the
     source every message. *)
  let topo = Topology.grid 11 in
  for seed = 0 to 4 do
    let r =
      Phantom_runner.run
        {
          topology = topo;
          walk_length = 0;
          direction = Phantom.Compass;
          link = Link_model.Ideal;
          seed;
        }
    in
    Alcotest.(check bool) (Printf.sprintf "seed %d captured" seed) true r.captured;
    Alcotest.(check int) "attacker path ends at source" topo.Topology.source
      (List.nth r.attacker_path (List.length r.attacker_path - 1))
  done

let test_runner_walk_delays_capture () =
  (* The walk cannot prevent capture on a small grid but must delay it. *)
  let topo = Topology.grid 11 in
  let mean_capture walk_length =
    let times = ref [] in
    for seed = 0 to 9 do
      let r =
        Phantom_runner.run
          {
            topology = topo;
            walk_length;
            direction = Phantom.Compass;
            link = Link_model.Ideal;
            seed;
          }
      in
      match r.capture_seconds with
      | Some t -> times := t :: !times
      | None -> ()
    done;
    Slpdas_util.Stats.mean !times
  in
  let flood = mean_capture 0 and phantom = mean_capture 10 in
  Alcotest.(check bool)
    (Printf.sprintf "capture delayed: %.1fs vs %.1fs" flood phantom)
    true (phantom > flood)

let test_runner_deterministic () =
  let topo = Topology.grid 7 in
  let run () =
    Phantom_runner.run
      {
        topology = topo;
        walk_length = 5;
        direction = Phantom.Compass;
        link = Link_model.Ideal;
        seed = 9;
      }
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "captured equal" a.Phantom_runner.captured b.Phantom_runner.captured;
  Alcotest.(check int) "messages equal" a.Phantom_runner.messages_sent
    b.Phantom_runner.messages_sent;
  Alcotest.(check (list int)) "paths equal" a.Phantom_runner.attacker_path
    b.Phantom_runner.attacker_path

let test_runner_attacker_walk_valid () =
  let topo = Topology.grid 7 in
  let g = topo.Topology.graph in
  let r =
    Phantom_runner.run
      {
        topology = topo;
        walk_length = 3;
        direction = Phantom.Compass;
        link = Link_model.Ideal;
        seed = 4;
      }
  in
  Alcotest.(check int) "starts at sink" topo.Topology.sink (List.hd r.attacker_path);
  let rec ok = function
    | a :: (b :: _ as rest) -> Graph.mem_edge g a b && ok rest
    | _ -> true
  in
  Alcotest.(check bool) "path is a walk" true (ok r.attacker_path)

let test_runner_delivery_accounting () =
  let topo = Topology.grid 7 in
  let r =
    Phantom_runner.run
      {
        topology = topo;
        walk_length = 0;
        direction = Phantom.Compass;
        link = Link_model.Ideal;
        seed = 2;
      }
  in
  Alcotest.(check bool) "source sent messages" true (r.source_messages > 0);
  Alcotest.(check bool) "deliveries bounded by sends" true
    (r.delivered <= r.source_messages);
  Alcotest.(check bool) "most messages delivered" true
    (r.delivered >= r.source_messages - 1)

(* ------------------------------------------------------------------ *)
(* Fake sources                                                       *)
(* ------------------------------------------------------------------ *)

module Fake_source = Slpdas_core.Fake_source
module Fake_runner = Slpdas_exp.Fake_runner

let test_fake_opposite_corners () =
  let topo = Topology.grid 11 in
  Alcotest.(check (list int)) "three other corners" [ 10; 110; 120 ]
    (Fake_source.opposite_corners topo ~dim:11)

let test_fake_ids_disjoint () =
  (* Real ids are even, fake ids odd: the two streams can never collide. *)
  Alcotest.(check (option int)) "real id even" (Some 6)
    (Fake_source.message_id (Fake_source.Flood { id = 6; fake = false }));
  Alcotest.(check (option int)) "hello opaque" None
    (Fake_source.message_id Fake_source.Hello)

let test_fake_sink_accounting () =
  let topo = Topology.grid 7 in
  let config =
    {
      (Fake_source.default_config ~topology:topo
         ~fake_sources:(Fake_source.opposite_corners topo ~dim:7)
         ~fake_rate_multiplier:1.0)
      with
      Fake_source.run_seed = 3;
    }
  in
  let engine =
    Engine.create ~topology:topo ~link:Link_model.Ideal ~rng:(Rng.create 3)
      ~program:(Fake_source.program config) ()
  in
  Engine.run_until engine 30.0;
  let sink_state = Engine.node_state engine topo.Topology.sink in
  Alcotest.(check bool) "real readings collected" true
    (List.length sink_state.Fake_source.received_real >= 4);
  Alcotest.(check bool) "fake messages counted separately" true
    (sink_state.Fake_source.received_fake >= 10)

let test_fake_runner_rate_tradeoff () =
  (* The energy/privacy trade-off of [10]: matching the source's rate
     protects, half the rate does not. *)
  let topo = Topology.grid 11 in
  let corners = Fake_source.opposite_corners topo ~dim:11 in
  let capture_count mult =
    let captures = ref 0 in
    for seed = 0 to 9 do
      let r =
        Fake_runner.run
          {
            topology = topo;
            fake_sources = corners;
            fake_rate_multiplier = mult;
            link = Link_model.Ideal;
            seed;
          }
      in
      if r.Fake_runner.captured then incr captures
    done;
    !captures
  in
  let slow = capture_count 0.5 and matched = capture_count 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "matching rate protects (%d vs %d captures)" matched slow)
    true
    (matched * 2 < slow)

let test_fake_runner_overhead_scales () =
  let topo = Topology.grid 7 in
  let corners = Fake_source.opposite_corners topo ~dim:7 in
  let msgs mult =
    (Fake_runner.run
       {
         topology = topo;
         fake_sources = corners;
         fake_rate_multiplier = mult;
         link = Link_model.Ideal;
         seed = 1;
       })
      .Fake_runner.messages_sent
  in
  Alcotest.(check bool) "chattier decoys cost more" true (msgs 2.0 > msgs 1.0)

let test_fake_runner_no_fakes_equals_flooding () =
  (* With no fake sources the attacker faces plain flooding and wins. *)
  let topo = Topology.grid 11 in
  let r =
    Fake_runner.run
      {
        topology = topo;
        fake_sources = [];
        fake_rate_multiplier = 1.0;
        link = Link_model.Ideal;
        seed = 4;
      }
  in
  Alcotest.(check bool) "captured" true r.Fake_runner.captured;
  Alcotest.(check int) "no fake traffic" 0 r.Fake_runner.fake_delivered

(* ------------------------------------------------------------------ *)
(* Energy accounting                                                  *)
(* ------------------------------------------------------------------ *)

let test_energy_report () =
  let g = Graph.create ~n:3 [ (0, 1); (1, 2) ] in
  (* Node 1 transmits twice; 0 and 2 once each. *)
  let report =
    Slpdas_exp.Energy.of_broadcasts g ~broadcasts_by_node:[| 1; 2; 1 |]
  in
  let tx = Slpdas_exp.Energy.cc2420.Slpdas_exp.Energy.tx_joules_per_packet in
  let rx = Slpdas_exp.Energy.cc2420.Slpdas_exp.Energy.rx_joules_per_packet in
  (* Node 1 hears 0's and 2's packets (2 rx); nodes 0 and 2 hear 1's (2 rx
     each). *)
  let expected_total = (4. *. tx) +. (6. *. rx) in
  Alcotest.(check (float 1e-9)) "total" expected_total report.Slpdas_exp.Energy.total_joules;
  (* Node 1: 2 tx + 2 rx; node 0: 1 tx + 2 rx; tx < rx so node 1 wins. *)
  Alcotest.(check int) "hotspot is the relay" 1 report.Slpdas_exp.Energy.hotspot

let test_energy_arity_checked () =
  let g = Graph.create ~n:3 [ (0, 1) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Energy.of_broadcasts: arity mismatch")
    (fun () -> ignore (Slpdas_exp.Energy.of_broadcasts g ~broadcasts_by_node:[| 1 |]))

let test_energy_lifetime () =
  let g = Graph.create ~n:2 [ (0, 1) ] in
  let report = Slpdas_exp.Energy.of_broadcasts g ~broadcasts_by_node:[| 100; 0 |] in
  let days =
    Slpdas_exp.Energy.lifetime_days report ~duration_seconds:3600.0
  in
  Alcotest.(check bool) "finite positive lifetime" true (days > 0.0 && days < infinity);
  Alcotest.check_raises "duration" (Invalid_argument "Energy.lifetime_days: non-positive duration")
    (fun () -> ignore (Slpdas_exp.Energy.lifetime_days report ~duration_seconds:0.0))

let test_energy_of_des_run () =
  let topo = Topology.grid 5 in
  let r =
    Slpdas_exp.Runner.run
      (Slpdas_exp.Runner.default_config ~topology:topo
         ~mode:Slpdas_core.Protocol.Protectionless ~seed:1)
  in
  let report =
    Slpdas_exp.Energy.of_broadcasts topo.Topology.graph
      ~broadcasts_by_node:r.Slpdas_exp.Runner.broadcasts_by_node
  in
  Alcotest.(check bool) "positive energy" true (report.Slpdas_exp.Energy.total_joules > 0.0);
  Alcotest.(check bool) "hotspot below total" true
    (report.Slpdas_exp.Energy.max_node_joules < report.Slpdas_exp.Energy.total_joules)

(* ------------------------------------------------------------------ *)
(* Parent-pinned runs of both direction policies (phantom_oracle.ml)  *)
(* ------------------------------------------------------------------ *)

let test_oracle_matches () =
  Alcotest.(check int) "one recorded digest per case"
    (List.length Phantom_oracle.cases)
    (List.length Phantom_digests.table);
  List.iter
    (fun c ->
      let name = Phantom_oracle.name c in
      match List.assoc_opt name Phantom_digests.table with
      | None -> Alcotest.failf "no recorded digest for %s" name
      | Some (want : Phantom_oracle.observation) ->
        let got = Phantom_oracle.observe c in
        Alcotest.(check bool) (name ^ ": captured") want.captured got.captured;
        Alcotest.(check int) (name ^ ": transmissions") want.messages_sent
          got.messages_sent;
        Alcotest.(check string) (name ^ ": digest") want.digest got.digest)
    Phantom_oracle.cases

let test_zero_sectors_rejected () =
  let topo = Topology.grid 5 in
  List.iter
    (fun n ->
      let config =
        {
          (Phantom.default_config ~topology:topo ~walk_length:3) with
          direction = Phantom.Sectors n;
        }
      in
      match Phantom.program config ~self:0 with
      | _ -> Alcotest.failf "Sectors %d accepted" n
      | exception Invalid_argument _ -> ())
    [ 0; -2 ]

let () =
  Alcotest.run "phantom"
    [
      ( "protocol",
        [
          Alcotest.test_case "message ids" `Quick test_message_id;
          Alcotest.test_case "flood delivers" `Quick test_flood_delivers_every_message;
          Alcotest.test_case "flood message count" `Quick test_flood_message_count;
          Alcotest.test_case "walk then flood" `Quick test_walk_reaches_phantom_then_floods;
          Alcotest.test_case "walk costs more" `Quick test_walk_zero_equals_flood_traffic;
          Alcotest.test_case "deduplication" `Quick test_deduplication;
        ] );
      ( "runner",
        [
          Alcotest.test_case "flood always captured" `Slow
            test_runner_flood_always_captures;
          Alcotest.test_case "walk delays capture" `Slow test_runner_walk_delays_capture;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "attacker walk valid" `Quick test_runner_attacker_walk_valid;
          Alcotest.test_case "delivery accounting" `Quick test_runner_delivery_accounting;
        ] );
      ( "phantom-oracle",
        [
          Alcotest.test_case "runs match the parent" `Quick test_oracle_matches;
          Alcotest.test_case "Sectors n < 1 rejected" `Quick
            test_zero_sectors_rejected;
        ] );
      ( "fake-sources",
        [
          Alcotest.test_case "opposite corners" `Quick test_fake_opposite_corners;
          Alcotest.test_case "id streams disjoint" `Quick test_fake_ids_disjoint;
          Alcotest.test_case "sink accounting" `Quick test_fake_sink_accounting;
          Alcotest.test_case "rate trade-off" `Slow test_fake_runner_rate_tradeoff;
          Alcotest.test_case "overhead scales" `Quick test_fake_runner_overhead_scales;
          Alcotest.test_case "no fakes = flooding" `Quick
            test_fake_runner_no_fakes_equals_flooding;
        ] );
      ( "energy",
        [
          Alcotest.test_case "report" `Quick test_energy_report;
          Alcotest.test_case "arity" `Quick test_energy_arity_checked;
          Alcotest.test_case "lifetime" `Quick test_energy_lifetime;
          Alcotest.test_case "of DES run" `Slow test_energy_of_des_run;
        ] );
    ]
