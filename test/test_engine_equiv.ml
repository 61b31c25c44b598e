(* Differential tests: the fast engine implementation against the reference
   oracle (Engine.Reference).  For the same topology, program and seeds, the
   two implementations must be observably indistinguishable — identical
   event counters, per-node broadcast counts, final node states and capture
   outcomes — for every link model and every scenario family. *)

module Topology = Slpdas_wsn.Topology
module Graph = Slpdas_wsn.Graph
module Rng = Slpdas_util.Rng
module Gcn = Slpdas_gcn
module Engine = Slpdas_sim.Engine
module Event = Slpdas_sim.Event
module Link_model = Slpdas_sim.Link_model
module Shard = Slpdas_sim.Shard
module Protocol = Slpdas_core.Protocol
module Scenario = Slpdas_exp.Scenario
module Coupled = Slpdas_exp.Coupled
module Harness = Slpdas_exp.Harness
module Runner = Slpdas_exp.Runner
module Phantom_runner = Slpdas_exp.Phantom_runner
module Fake_runner = Slpdas_exp.Fake_runner

let links =
  [
    ("ideal", Link_model.Ideal);
    ("lossy", Link_model.Lossy 0.25);
    ("gaussian", Link_model.default_gaussian);
  ]

let check_counters label (expected : Event.counters) (actual : Event.counters)
    =
  let chk name f = Alcotest.(check int) (label ^ ": " ^ name) (f expected) (f actual) in
  chk "broadcasts" (fun c -> c.Event.broadcasts);
  chk "deliveries" (fun c -> c.Event.deliveries);
  chk "drops_link" (fun c -> c.Event.drops_link);
  chk "drops_collision" (fun c -> c.Event.drops_collision);
  chk "timer_fires" (fun c -> c.Event.timer_fires);
  chk "attacker_moves" (fun c -> c.Event.attacker_moves);
  chk "phase_transitions" (fun c -> c.Event.phase_transitions);
  chk "node_failures" (fun c -> c.Event.node_failures);
  chk "node_revivals" (fun c -> c.Event.node_revivals);
  chk "link_changes" (fun c -> c.Event.link_changes);
  Alcotest.(check (option (float 0.0)))
    (label ^ ": first_event") expected.Event.first_event actual.Event.first_event;
  Alcotest.(check (option (float 0.0)))
    (label ^ ": last_event") expected.Event.last_event actual.Event.last_event

(* Run a scenario under both implementations; results must agree exactly
   (the result records are plain data, so structural equality is the full
   observable comparison). *)
let both scenario =
  let fast = Harness.run_with_events scenario in
  let refr =
    Harness.run_with_events
      (Scenario.with_engine_impl Engine.Reference scenario)
  in
  (fast, refr)

let check_scenario label scenario =
  let (fast_r, fast_c), (ref_r, ref_c) = both scenario in
  check_counters label ref_c fast_c;
  Alcotest.(check bool) (label ^ ": results equal") true (fast_r = ref_r)

(* ------------------------------------------------------------------ *)
(* Scenario families                                                  *)
(* ------------------------------------------------------------------ *)

let test_das_family () =
  let topology = Topology.grid 5 in
  List.iter
    (fun (name, link) ->
      List.iter
        (fun mode ->
          let cfg =
            {
              (Runner.default_config ~topology ~mode ~seed:7) with
              Runner.link;
            }
          in
          let label =
            Printf.sprintf "das/%s/%s" name
              (match mode with
              | Protocol.Protectionless -> "das"
              | Protocol.Slp -> "slp")
          in
          let (fast_r, fast_c), (ref_r, ref_c) = both (Runner.scenario cfg) in
          check_counters label ref_c fast_c;
          Alcotest.(check bool) (label ^ ": captured") ref_r.Runner.captured
            fast_r.Runner.captured;
          Alcotest.(check (option (float 0.0)))
            (label ^ ": capture time") ref_r.Runner.capture_seconds
            fast_r.Runner.capture_seconds;
          Alcotest.(check (list int)) (label ^ ": attacker path")
            ref_r.Runner.attacker_path fast_r.Runner.attacker_path;
          Alcotest.(check (array int)) (label ^ ": broadcasts by node")
            ref_r.Runner.broadcasts_by_node fast_r.Runner.broadcasts_by_node;
          Alcotest.(check bool) (label ^ ": full results equal") true
            (fast_r = ref_r))
        [ Protocol.Protectionless; Protocol.Slp ])
    links

let test_das_with_airtime () =
  (* Interference modelling exercises the jam check, whose fast path uses
     per-node audible queues instead of the reference's global list. *)
  let topology = Topology.grid 5 in
  List.iter
    (fun (name, link) ->
      let cfg =
        {
          (Runner.default_config ~topology ~mode:Protocol.Slp ~seed:11) with
          Runner.link;
          airtime = Some 0.004;
        }
      in
      check_scenario (Printf.sprintf "das+airtime/%s" name)
        (Runner.scenario cfg))
    links

let test_phantom_family () =
  let topology = Topology.grid 7 in
  List.iter
    (fun (name, link) ->
      List.iter
        (fun walk_length ->
          let cfg =
            {
              Phantom_runner.topology;
              walk_length;
              direction = Slpdas_core.Phantom.Compass;
              link;
              seed = 3;
            }
          in
          let (fast_r, fast_c), (ref_r, ref_c) =
            both (Phantom_runner.scenario cfg)
          in
          let label = Printf.sprintf "phantom/%s/walk%d" name walk_length in
          check_counters label ref_c fast_c;
          Alcotest.(check bool) (label ^ ": captured")
            ref_r.Phantom_runner.captured fast_r.Phantom_runner.captured;
          Alcotest.(check (array int)) (label ^ ": broadcasts by node")
            ref_r.Phantom_runner.broadcasts_by_node
            fast_r.Phantom_runner.broadcasts_by_node;
          Alcotest.(check bool) (label ^ ": full results equal") true
            (fast_r = ref_r))
        [ 0; 4 ])
    links

let test_fake_family () =
  let topology = Topology.grid 5 in
  let corner = (Graph.n topology.Topology.graph) - 1 in
  List.iter
    (fun (name, link) ->
      let cfg =
        {
          Fake_runner.topology;
          fake_sources = [ corner ];
          fake_rate_multiplier = 1.0;
          link;
          seed = 5;
        }
      in
      check_scenario (Printf.sprintf "fake/%s" name)
        (Fake_runner.scenario cfg))
    links

(* ------------------------------------------------------------------ *)
(* Engine-level comparison: full node states and action traces        *)
(* ------------------------------------------------------------------ *)

let go_timer = Gcn.Timer.intern "equiv-go"

let zero_timer = Gcn.Timer.intern "equiv-zero"

(* Repeating flooder: flooding nodes re-flood every second; nodes forward
   each wave once (state: latest wave heard and who delivered it).  It is
   broadcast-heavy, so lossy and SNR links draw plenty of randomness.
   [flood] selects the flooders (node 0 by default); the shard tests use it
   to flood from each component's local origin.  With [zero], a forwarder
   also arms a zero-delay timer, whose fire shares the delivery's
   timestamp (the coupled batch tests use it). *)
let wave_program_gen ~zero ~flood ~self =
  let init ~self =
    ( (0, -1),
      if flood self then [ Gcn.Set_timer { timer = go_timer; after = 1.0 } ]
      else [] )
  in
  let go =
    {
      Gcn.name = "go";
      handler =
        (fun ~self:_ (wave, from) trigger ->
          match trigger with
          | Gcn.Timeout tm when Gcn.Timer.equal tm go_timer ->
            Some
              ( (wave + 1, from),
                [
                  Gcn.Broadcast (wave + 1);
                  Gcn.Set_timer { timer = go_timer; after = 1.0 };
                ] )
          | _ -> None);
    }
  in
  let forward =
    {
      Gcn.name = "forward";
      handler =
        (fun ~self:_ (wave, _) trigger ->
          match trigger with
          | Gcn.Receive { msg; sender } when msg > wave ->
            let tick =
              if zero then [ Gcn.Set_timer { timer = zero_timer; after = 0.0 } ]
              else []
            in
            Some ((msg, sender), Gcn.Broadcast msg :: tick)
          | _ -> None);
    }
  in
  let tick =
    {
      Gcn.name = "tick";
      handler =
        (fun ~self:_ state trigger ->
          match trigger with
          | Gcn.Timeout tm when Gcn.Timer.equal tm zero_timer -> Some (state, [])
          | _ -> None);
    }
  in
  ignore self;
  {
    Gcn.init;
    actions = (if zero then [ go; forward; tick ] else [ go; forward ]);
    spontaneous = [];
  }

let wave_program ~self =
  wave_program_gen ~zero:false ~flood:(fun v -> v = 0) ~self

let zero_wave_program ~self =
  wave_program_gen ~zero:true ~flood:(fun v -> v = 0) ~self

(* A grid-6 wave engine whose nodes record their action traces. *)
let wave_engine ~impl ?batch_cutover ?airtime ?(seed = 42) link =
  let topology = Topology.grid 6 in
  let trace = Fired_trace.create (Graph.n topology.Topology.graph) in
  let e =
    Engine.create ~impl ?batch_cutover ?airtime ~topology ~link
      ~rng:(Rng.create seed)
      ~program:(Fired_trace.node_program trace wave_program)
      ()
  in
  (e, trace)

let run_wave ~impl ?batch_cutover ?airtime link =
  let ((e, _) as run) = wave_engine ~impl ?batch_cutover ?airtime link in
  Engine.run_until e 8.0;
  run

let check_engines label (a, a_trace) (b, b_trace) =
  let n = Graph.n (Engine.topology a).Topology.graph in
  check_counters label (Engine.counters a) (Engine.counters b);
  Alcotest.(check (array int)) (label ^ ": broadcasts by node")
    (Engine.broadcasts_by_node a)
    (Engine.broadcasts_by_node b);
  for v = 0 to n - 1 do
    Alcotest.(check (pair int int))
      (Printf.sprintf "%s: state of node %d" label v)
      (Engine.node_state a v) (Engine.node_state b v);
    Alcotest.(check (list string))
      (Printf.sprintf "%s: fired trace of node %d" label v)
      (Fired_trace.get a_trace v) (Fired_trace.get b_trace v)
  done

let test_engine_states () =
  List.iter
    (fun (name, link) ->
      check_engines name
        (run_wave ~impl:Engine.Reference link)
        (run_wave ~impl:Engine.Fast link);
      (* Grid 6 sits below the batch cutover, so the default Fast run above
         exercises the singleton regime; forcing the cutover to 0 keeps the
         batch-expansion path under the same oracle. *)
      check_engines (name ^ "+batch")
        (run_wave ~impl:Engine.Reference link)
        (run_wave ~impl:Engine.Fast ~batch_cutover:0 link))
    links

let test_engine_states_airtime () =
  List.iter
    (fun (name, link) ->
      check_engines (name ^ "+airtime")
        (run_wave ~impl:Engine.Reference ~airtime:0.003 link)
        (run_wave ~impl:Engine.Fast ~airtime:0.003 link);
      check_engines (name ^ "+airtime+batch")
        (run_wave ~impl:Engine.Reference ~airtime:0.003 link)
        (run_wave ~impl:Engine.Fast ~batch_cutover:0 ~airtime:0.003 link))
    links

(* Fault layer: mid-run crash-stops, a revival, link overrides and a loss
   burst, all queued at fixed times.  Both implementations must agree on
   every observable — including the typed failure/revival/link-change
   counters and the fault-layer's extra randomness draws, which are made
   per neighbour in adjacency order in both engines. *)
let run_wave_faulted ~impl ?batch_cutover link =
  let ((e, _) as run) = wave_engine ~impl ?batch_cutover link in
  Engine.schedule e ~at:2.5 (fun e -> Engine.fail_node e 7);
  Engine.schedule e ~at:3.0 (fun e -> Engine.set_link_loss e ~a:0 ~b:1 0.6);
  Engine.schedule e ~at:3.5 (fun e -> Engine.fail_node e 14);
  Engine.schedule e ~at:4.5 (fun e -> Engine.revive_node e 7);
  Engine.schedule e ~at:5.0 (fun e -> Engine.set_global_loss e 0.3);
  Engine.schedule e ~at:6.0 (fun e -> Engine.set_global_loss e 0.0);
  Engine.schedule e ~at:6.5 (fun e -> Engine.set_link_loss e ~a:0 ~b:1 0.0);
  Engine.run_until e 8.0;
  run

let test_fault_equivalence () =
  List.iter
    (fun (name, link) ->
      check_engines (name ^ "+faults")
        (run_wave_faulted ~impl:Engine.Reference link)
        (run_wave_faulted ~impl:Engine.Fast link);
      check_engines (name ^ "+faults+batch")
        (run_wave_faulted ~impl:Engine.Reference link)
        (run_wave_faulted ~impl:Engine.Fast ~batch_cutover:0 link))
    links

(* The full DAS protocol with crash-stops and a revival during the setup
   window, armed through the scenario fault hooks exactly as the churn
   workload does. *)
let test_das_with_crashes () =
  let topology = Topology.grid 5 in
  List.iter
    (fun (name, link) ->
      let cfg =
        { (Runner.default_config ~topology ~mode:Protocol.Slp ~seed:13) with
          Runner.link }
      in
      let scenario =
        Scenario.with_faults
          (fun e ->
            Engine.schedule e ~at:22.0 (fun e -> Engine.fail_node e 7);
            Engine.schedule e ~at:47.0 (fun e -> Engine.fail_node e 18);
            Engine.schedule e ~at:120.0 (fun e -> Engine.revive_node e 7))
          (Runner.scenario cfg)
      in
      check_scenario ("das+crashes/" ^ name) scenario)
    links

(* Mid-run stop: a subscriber halts the run at a fixed broadcast count.
   Both implementations must stop with the same observable state — the
   fast engine re-checks the halt flag between batched recipients. *)
let test_stop_equivalence () =
  let run ?batch_cutover impl =
    let ((e, _) as run) =
      wave_engine ~impl ?batch_cutover ~seed:9 (Link_model.Lossy 0.2)
    in
    let seen = ref 0 in
    Engine.subscribe e (fun ev ->
        match ev with
        | Event.Broadcast _ ->
          incr seen;
          if !seen = 40 then Engine.stop e
        | _ -> ());
    Engine.run_until e 100.0;
    run
  in
  check_engines "stop@40" (run Engine.Reference) (run Engine.Fast);
  check_engines "stop@40+batch" (run Engine.Reference)
    (run ~batch_cutover:0 Engine.Fast)

(* ------------------------------------------------------------------ *)
(* Coupled sharding: cells stay radio-coupled over cut edges and run  *)
(* in conservative lookahead windows.  The contract is byte-identity  *)
(* with the unsharded sequential engine (Shard.sequential_engine) at  *)
(* any cell count and any domain count.                               *)
(* ------------------------------------------------------------------ *)

(* Global observables of a run: merged counters plus per-node state,
   fired-trace and broadcast count indexed by *global* node id. *)
type global_obs = {
  o_counters : Event.counters;
  o_states : (int * int) array;
  o_fired : string list array;
  o_bbn : int array;
}

let seq_obs ~impl ?(program = wave_program) ?(arm = fun _ -> ()) ~topology
    ~link ~until () =
  let n = Graph.n topology.Topology.graph in
  let trace = Fired_trace.create n in
  let e =
    Shard.sequential_engine ~impl ~topology ~link ~seed:42
      ~program:(Fired_trace.node_program trace program)
      ()
  in
  arm e;
  Engine.run_until e until;
  {
    o_counters = Engine.counters e;
    o_states = Array.init n (Engine.node_state e);
    o_fired = Array.init n (Fired_trace.get trace);
    o_bbn = Engine.broadcasts_by_node e;
  }

let coupled_obs ~impl ?(program = wave_program) ?(domains = 1)
    ?(arm = fun ~plan:_ ~cell:_ _ -> ()) ?monitor ~cells_x ~cells_y ~topology
    ~link ~until () =
  let plan = Shard.plan ~cells_x ~cells_y topology in
  let n = Graph.n topology.Topology.graph in
  let states = Array.make n (0, 0) in
  let fired = Fired_trace.create n in
  let bbn = Array.make n 0 in
  let _, merged =
    Shard.run_coupled ~domains ~impl ?monitor
      ~arm:(fun ~cell e -> arm ~plan ~cell e)
      ~inspect:(fun ~cell e ->
        let local_bbn = Engine.broadcasts_by_node e in
        Array.iteri
          (fun i v ->
            states.(v) <- Engine.node_state e i;
            bbn.(v) <- local_bbn.(i))
          cell.Shard.nodes)
      plan ~link ~seed:42
      ~program:(Fired_trace.node_program fired program)
      ~until
  in
  { o_counters = merged; o_states = states; o_fired = fired; o_bbn = bbn }

let check_obs ?(skip_link_changes = false) label expected actual =
  (if skip_link_changes then begin
     (* Per-cell fault application duplicates the Link_changed bookkeeping
        event (one per cell instead of one per deployment); the caller
        checks that counter separately. *)
     let scrub c = { c with Event.link_changes = 0 } in
     check_counters label (scrub expected.o_counters) (scrub actual.o_counters)
   end
   else check_counters label expected.o_counters actual.o_counters);
  Alcotest.(check (array int)) (label ^ ": broadcasts by node") expected.o_bbn
    actual.o_bbn;
  Array.iteri
    (fun v s ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s: state of node %d" label v)
        s actual.o_states.(v);
      Alcotest.(check (list string))
        (Printf.sprintf "%s: fired trace of node %d" label v)
        expected.o_fired.(v) actual.o_fired.(v))
    expected.o_states

(* Two grid-6 copies, ids offset by n, 1 km apart: a 2x1 or 3x1 plan bins
   each copy into its own cell and cuts no link, so the coupled run has no
   mailbox at all. *)
let twin_topology () =
  let base = Topology.grid 6 in
  let g = base.Topology.graph in
  let n = Graph.n g in
  let offsets = Array.make ((2 * n) + 1) 0 in
  for v = 0 to (2 * n) - 1 do
    offsets.(v + 1) <- offsets.(v) + Graph.degree g (v mod n)
  done;
  let targets = Array.make offsets.(2 * n) 0 in
  let pos = ref 0 in
  for copy = 0 to 1 do
    for v = 0 to n - 1 do
      Array.iter
        (fun w ->
          targets.(!pos) <- w + (copy * n);
          incr pos)
        (Graph.neighbours g v)
    done
  done;
  let graph = Graph.of_csr ~n:(2 * n) ~offsets ~targets in
  let positions =
    Array.init (2 * n) (fun v ->
        let x, y = base.Topology.positions.(v mod n) in
        if v < n then (x, y) else (x +. 1000.0, y))
  in
  {
    Topology.name = "twin-grid-6";
    graph;
    positions;
    source = 0;
    sink = base.Topology.sink;
  }

let coupled_topologies () =
  [
    ("grid6", Topology.grid 6);
    ("ring24", Topology.ring 24);
    ("twin6", twin_topology ());
  ]

(* Structural plan invariants, against the base graph: [cut_links] counts
   the links whose ends lie in different cells, each such link gives one
   port to either end (so the port rows sum to twice the count), and
   [boundary_nodes] counts the nodes owning a port. *)
let check_plan_accounting label (plan : Shard.plan) =
  let g = plan.Shard.base.Topology.graph in
  let cut = ref 0 and boundary = ref 0 in
  for v = 0 to Graph.n g - 1 do
    let foreign w = plan.Shard.cell_of_node.(w) <> plan.Shard.cell_of_node.(v) in
    Array.iter (fun w -> if v < w && foreign w then incr cut) (Graph.neighbours g v);
    if Array.exists foreign (Graph.neighbours g v) then incr boundary
  done;
  Alcotest.(check int) (label ^ ": cut_links") !cut plan.Shard.cut_links;
  let port_rows =
    Array.fold_left
      (fun acc c ->
        acc + c.Shard.ports_off.(Array.length c.Shard.nodes))
      0 plan.Shard.cells
  in
  Alcotest.(check int)
    (label ^ ": port rows sum to 2 * cut_links")
    (2 * plan.Shard.cut_links) port_rows;
  Alcotest.(check int) (label ^ ": boundary_nodes") !boundary
    (Shard.boundary_nodes plan)

(* Plans that must cut nothing (one cell; the twin's copies in separate
   cells) and plans that must cut links (grid cells, 16 cells of the
   101x101 grid). *)
let test_plan_cut_links () =
  let check_plan label ~cells ~cuts plan =
    check_plan_accounting label plan;
    Alcotest.(check int) (label ^ ": cells") cells
      (Array.length plan.Shard.cells);
    Alcotest.(check bool) (label ^ ": cuts links") cuts
      (plan.Shard.cut_links > 0)
  in
  check_plan "grid6/1x1" ~cells:1 ~cuts:false
    (Shard.plan ~cells_x:1 ~cells_y:1 (Topology.grid 6));
  check_plan "twin6/2x1" ~cells:2 ~cuts:false
    (Shard.plan ~cells_x:2 ~cells_y:1 (twin_topology ()));
  check_plan "grid7/2x2" ~cells:4 ~cuts:true
    (Shard.plan ~cells_x:2 ~cells_y:2 (Topology.grid 7));
  check_plan "grid101/4x4" ~cells:16 ~cuts:true
    (Shard.plan ~cells_x:4 ~cells_y:4 (Topology.grid 101))

let test_coupled_vs_sequential () =
  List.iter
    (fun (tname, topology) ->
      let plan22 = Shard.plan ~cells_x:2 ~cells_y:2 topology in
      check_plan_accounting (tname ^ "/2x2") plan22;
      Alcotest.(check bool)
        (tname ^ "/2x2: cells cut radio links")
        true
        (plan22.Shard.cut_links > 0);
      Alcotest.(check bool)
        (tname ^ "/2x2: boundary nodes exist")
        true
        (Shard.boundary_nodes plan22 > 0);
      List.iter
        (fun (lname, link) ->
          let seq impl = seq_obs ~impl ~topology ~link ~until:8.0 () in
          let seq_fast = seq Engine.Fast in
          let seq_ref = seq Engine.Reference in
          (* The stable-ordered sequential twin is itself impl-invariant. *)
          check_obs
            (Printf.sprintf "%s/%s: sequential fast = reference" tname lname)
            seq_ref seq_fast;
          List.iter
            (fun (iname, impl, twin) ->
              List.iter
                (fun (cells_x, cells_y) ->
                  let label =
                    Printf.sprintf "%s/%s/%s/%dx%d coupled = sequential" tname
                      lname iname cells_x cells_y
                  in
                  check_obs label twin
                    (coupled_obs ~impl ~domains:2 ~cells_x ~cells_y ~topology
                       ~link ~until:8.0 ()))
                [ (1, 1); (2, 2); (3, 1) ])
            [
              ("fast", Engine.Fast, seq_fast);
              ("ref", Engine.Reference, seq_ref);
            ])
        links)
    (coupled_topologies ())

(* Fault plan shared by the twin and the coupled run: crash a boundary node
   mid-window (2.0005 sits between the wave-2 broadcast at 2.0 and its
   deliveries at 2.001), an intra-cell link override, a second crash, a
   revival, and a network-wide loss burst.  Under coupling, crashes,
   revivals and the override are armed in the owning cell with local ids;
   the global loss floor is mirrored into every cell. *)
let coupled_fault_times ~bnode =
  [
    (2.0005, `Fail bnode);
    (3.0, `Link_override (0, 1, 0.6));
    (3.5, `Fail 14);
    (4.5, `Revive bnode);
    (5.0, `Global_loss 0.3);
    (6.0, `Global_loss 0.0);
    (6.5, `Link_override (0, 1, 0.0));
  ]

(* First global node owning at least one boundary port. *)
let first_boundary_node (plan : Shard.plan) =
  let best = ref max_int in
  Array.iter
    (fun c ->
      Array.iteri
        (fun i v ->
          if c.Shard.ports_off.(i + 1) > c.Shard.ports_off.(i) && v < !best
          then best := v)
        c.Shard.nodes)
    plan.Shard.cells;
  !best

(* Arm a fault list (global ids) on the sequential twin ... *)
let arm_faults_seq faults e =
  List.iter
    (fun (at, f) ->
      match f with
      | `Fail v -> Engine.schedule e ~at (fun e -> Engine.fail_node e v)
      | `Revive v -> Engine.schedule e ~at (fun e -> Engine.revive_node e v)
      | `Link_override (a, b, p) ->
        Engine.schedule e ~at (fun e -> Engine.set_link_loss e ~a ~b p)
      | `Global_loss p ->
        Engine.schedule e ~at (fun e -> Engine.set_global_loss e p))
    faults

(* ... or on one coupled cell (the owning cell, with local ids). *)
let arm_faults_cell faults ~plan ~cell e =
  let mine v = plan.Shard.cell_of_node.(v) = cell.Shard.id in
  let local v = plan.Shard.local_index.(v) in
  List.iter
    (fun (at, f) ->
      match f with
      | `Fail v when mine v ->
        Engine.schedule e ~at (fun e -> Engine.fail_node e (local v))
      | `Revive v when mine v ->
        Engine.schedule e ~at (fun e -> Engine.revive_node e (local v))
      | `Link_override (a, b, p) when mine a && mine b ->
        Engine.schedule e ~at (fun e ->
            Engine.set_link_loss e ~a:(local a) ~b:(local b) p)
      | `Global_loss p ->
        Engine.schedule e ~at (fun e -> Engine.set_global_loss e p)
      | `Fail _ | `Revive _ | `Link_override _ -> ())
    faults

let global_loss_changes faults =
  List.length
    (List.filter (fun (_, f) -> match f with `Global_loss _ -> true | _ -> false)
       faults)

let test_coupled_faults () =
  let topology = Topology.grid 6 in
  let plan = Shard.plan ~cells_x:2 ~cells_y:2 topology in
  let nc = Array.length plan.Shard.cells in
  let bnode = first_boundary_node plan in
  Alcotest.(check bool) "crash target is a boundary node" true
    (bnode < Graph.n topology.Topology.graph);
  (* The overridden link must not be a cut edge (unsupported under
     coupling): both endpoints live in the same cell. *)
  Alcotest.(check int) "override edge 0-1 is intra-cell"
    plan.Shard.cell_of_node.(0)
    plan.Shard.cell_of_node.(1);
  let faults = coupled_fault_times ~bnode in
  let arm_seq = arm_faults_seq faults and arm_cell = arm_faults_cell faults in
  let global_changes = global_loss_changes faults in
  List.iter
    (fun (lname, link) ->
      List.iter
        (fun (iname, impl) ->
          let label = Printf.sprintf "faults/%s/%s" lname iname in
          let twin = seq_obs ~impl ~arm:arm_seq ~topology ~link ~until:8.0 () in
          let coupled =
            coupled_obs ~impl ~domains:2 ~arm:arm_cell ~cells_x:2 ~cells_y:2
              ~topology ~link ~until:8.0 ()
          in
          check_obs ~skip_link_changes:true label twin coupled;
          (* Every cell logs the mirrored global-loss changes; everything
             else is armed exactly once. *)
          Alcotest.(check int) (label ^ ": link changes")
            (twin.o_counters.Event.link_changes + ((nc - 1) * global_changes))
            coupled.o_counters.Event.link_changes)
        [ ("fast", Engine.Fast); ("ref", Engine.Reference) ])
    links

(* The exp-layer recorder must reconstruct the sequential engine's bus
   exactly: record every event in every cell with its processing key, merge,
   and compare against a tap on the sequential twin. *)
let test_coupled_event_stream () =
  let topology = Topology.grid 6 in
  let plan = Shard.plan ~cells_x:2 ~cells_y:2 topology in
  List.iter
    (fun (lname, link) ->
      let twin =
        Shard.sequential_engine ~impl:Engine.Fast ~topology ~link ~seed:42
          ~program:wave_program ()
      in
      let twin_stream = Coupled.tap twin in
      Engine.run_until twin 8.0;
      let recorder = Coupled.recorder () in
      let _ =
        Shard.run_coupled ~domains:2 ~monitor:(Coupled.monitor recorder) plan
          ~link ~seed:42 ~program:wave_program ~until:8.0
      in
      let merged = Coupled.events recorder in
      let expected = twin_stream () in
      Alcotest.(check int)
        (lname ^ ": stream lengths")
        (Array.length expected) (Array.length merged);
      Alcotest.(check bool)
        (lname ^ ": merged stream = sequential bus")
        true
        (merged = expected))
    links

(* The pure hunter fold over a coupled run's merged stream must reach the
   same verdict as the live Slpdas_attack.Hunter subscribed on the sequential
   twin (which stops the engine at capture — the fold instead ignores the
   stream's tail). *)
let test_coupled_hunter () =
  let topology = Topology.grid 6 in
  let n = Graph.n topology.Topology.graph in
  let start = n - 1 and source = 0 in
  let message_id msg = Some msg in
  let plan = Shard.plan ~cells_x:2 ~cells_y:2 topology in
  List.iter
    (fun (lname, link) ->
      let twin =
        Shard.sequential_engine ~impl:Engine.Fast ~topology ~link ~seed:42
          ~program:wave_program ()
      in
      let live =
        Slpdas_attack.Hunter.attach Slpdas_attack.Model.Local ~start ~source
          ~seed:0 ~message_id twin
      in
      Engine.run_until twin 14.0;
      let folded, _ =
        Coupled.capture ~domains:2 plan ~link ~seed:42 ~program:wave_program
          ~until:14.0 ~start ~source ~message_id ()
      in
      Alcotest.(check int) (lname ^ ": hunter location")
        (Slpdas_attack.Hunter.location live)
        folded.Slpdas_attack.Hunter.location;
      Alcotest.(check (list int)) (lname ^ ": hunter path")
        (Slpdas_attack.Hunter.path live) folded.Slpdas_attack.Hunter.path;
      Alcotest.(check (option (float 0.0)))
        (lname ^ ": capture time")
        (Slpdas_attack.Hunter.capture_time live)
        folded.Slpdas_attack.Hunter.capture_time;
      (* The wave floods from the source every second, so the hunter must
         actually converge — guard against a vacuous pass. *)
      Alcotest.(check bool) (lname ^ ": hunter captures") true
        (folded.Slpdas_attack.Hunter.capture_time <> None))
    links

(* A monitor that stops one cell ends the coupled run at the barrier of the
   window it stopped in.  (The window loop used to spin forever here: the
   halted cell returned from every window at once while still reporting its
   pending events.)  The stopped cell holds exactly the stopping delivery;
   no cell ran an event at or past that window's horizon, and none was
   advanced to [until]. *)
let test_coupled_stop () =
  let topology = Topology.grid 6 in
  let plan = Shard.plan ~cells_x:2 ~cells_y:2 topology in
  let nc = Array.length plan.Shard.cells in
  let stopper = plan.Shard.cell_of_node.(0) in
  let run domains =
    let stop_at = ref infinity in
    let last = Array.make nc neg_infinity in
    let times = Array.make nc infinity in
    let monitor ~cell e =
      let id = cell.Shard.id in
      Engine.subscribe e (fun ev ->
          let t = Event.time ev in
          if t > last.(id) then last.(id) <- t;
          match ev with
          | Event.Delivery _ when id = stopper && not (Engine.stopped e) ->
            stop_at := t;
            Engine.stop e
          | _ -> ())
    in
    let per_cell, _ =
      Shard.run_coupled ~domains ~monitor
        ~inspect:(fun ~cell e -> times.(cell.Shard.id) <- Engine.time e)
        plan ~link:Link_model.Ideal ~seed:42 ~program:wave_program ~until:8.0
    in
    Alcotest.(check int) "stopped cell holds the stopping delivery" 1
      per_cell.(stopper).Event.deliveries;
    Array.iteri
      (fun i t ->
        if t >= !stop_at +. Engine.propagation_delay then
          Alcotest.failf "cell %d ran an event at %h, past the window" i t;
        if times.(i) >= 8.0 then
          Alcotest.failf "cell %d advanced to until" i)
      last;
    per_cell
  in
  let d1 = run 1 in
  Alcotest.(check bool) "independent of the domain count" true (d1 = run 2)

let test_coupled_domain_invariance () =
  let topology = Topology.grid 7 in
  let plan = Shard.plan ~cells_x:2 ~cells_y:2 topology in
  List.iter
    (fun (lname, link) ->
      let run domains =
        let per_cell, merged =
          Shard.run_coupled ~domains plan ~link ~seed:42 ~program:wave_program
            ~until:6.0
        in
        String.concat ", "
          (List.map Event.to_json (merged :: Array.to_list per_cell))
      in
      let j1 = run 1 in
      List.iter
        (fun domains ->
          Alcotest.(check string)
            (Printf.sprintf "%s: coupled JSON, %d domains = 1 domain" lname
               domains)
            j1 (run domains))
        [ 2; 4 ])
    links

(* Acceptance-scale check: on the 101x101 grid (10201 nodes), a coupled run
   with 16 cells matches the unsharded sequential engine byte for byte —
   counters JSON and per-node broadcast counts — for every link model, at
   one and two domains. *)
let test_coupled_101 () =
  let topology = Topology.grid 101 in
  let until = 2.0 in
  List.iter
    (fun (lname, link) ->
      let twin =
        Shard.sequential_engine ~impl:Engine.Fast ~topology ~link ~seed:42
          ~program:wave_program ()
      in
      Engine.run_until twin until;
      let twin_json = Event.to_json (Engine.counters twin) in
      let twin_bbn = Engine.broadcasts_by_node twin in
      let plan = Shard.plan ~cells_x:4 ~cells_y:4 topology in
      List.iter
        (fun domains ->
          let n = Graph.n topology.Topology.graph in
          let bbn = Array.make n 0 in
          let _, merged =
            Shard.run_coupled ~domains plan ~link ~seed:42
              ~program:wave_program ~until
              ~inspect:(fun ~cell e ->
                let local = Engine.broadcasts_by_node e in
                Array.iteri (fun i v -> bbn.(v) <- local.(i)) cell.Shard.nodes)
          in
          let label = Printf.sprintf "101x101/%s/domains=%d" lname domains in
          Alcotest.(check string)
            (label ^ ": counters JSON") twin_json (Event.to_json merged);
          Alcotest.(check (array int))
            (label ^ ": broadcasts by node") twin_bbn bbn)
        [ 1; 2 ])
    links

(* Property: whatever the cell decomposition and domain count, the coupled
   run reproduces the sequential twin byte for byte. *)
let prop_coupled_cell_count_invariance =
  let topology = Topology.grid 5 in
  let link = Link_model.Lossy 0.25 in
  let twin = seq_obs ~impl:Engine.Fast ~topology ~link ~until:5.0 () in
  let twin_json = Event.to_json twin.o_counters in
  QCheck.Test.make ~count:12
    ~name:"coupled run is invariant in (cells_x, cells_y, domains)"
    QCheck.(triple (int_range 1 4) (int_range 1 4) (int_range 1 3))
    (fun (cells_x, cells_y, domains) ->
      (* QCheck's int shrinker can step outside the generator's range;
         clamp so shrinking a genuine failure stays well-formed. *)
      let cells_x = max 1 cells_x
      and cells_y = max 1 cells_y
      and domains = max 1 domains in
      let obs =
        coupled_obs ~impl:Engine.Fast ~domains ~cells_x ~cells_y ~topology
          ~link ~until:5.0 ()
      in
      Event.to_json obs.o_counters = twin_json
      && obs.o_states = twin.o_states
      && obs.o_fired = twin.o_fired
      && obs.o_bbn = twin.o_bbn)

(* ------------------------------------------------------------------ *)
(* Coupled delivery batches.  A Fast cell above the batch cutover     *)
(* folds each broadcast's local deliveries into one event carrying    *)
(* every recipient's stable key.  On the 33x33 grid (1089 nodes) the  *)
(* sequential twin and the 1x1 run batch, while 2x2 and 3x3 cells     *)
(* (<= 289 nodes) and the Reference impl push singletons: all of them *)
(* must emit the same bus, in the same order, under the same keys.    *)
(* ------------------------------------------------------------------ *)

let grid33 () = Topology.grid 33

(* Emission-order tap recording the processing key beside each event.
   Harness keys (-1, s) count per-engine schedule calls, which differ
   between the twin and a cell armed with only its own faults, so their
   k2 is masked. *)
let keyed_tap e =
  let acc = ref [] in
  Engine.subscribe e (fun ev ->
      let k1, k2 = Engine.processing_key e in
      acc := ((k1, if k1 < 0 then 0 else k2), ev) :: !acc);
  fun () -> List.rev !acc

(* The cell whose engine emits [ev] in a coupled run; -1 for the
   network-wide loss floor, which every cell logs. *)
let emitting_cell (plan : Shard.plan) (ev : int Event.t) =
  let cell v = plan.Shard.cell_of_node.(v) in
  match ev with
  | Event.Broadcast { sender; _ } | Event.Drop { sender; _ } -> cell sender
  | Event.Delivery { node; _ }
  | Event.Timer_fire { node; _ }
  | Event.Node_failed { node; _ }
  | Event.Node_revived { node; _ } ->
    cell node
  | Event.Link_changed { a; _ } -> if a < 0 then -1 else cell a
  | Event.Attacker_move _ | Event.Phase_transition _ -> -1

let test_batch_regimes () =
  let topology = grid33 () in
  Alcotest.(check bool) "33x33 lies above the cutover" true
    (Graph.n topology.Topology.graph > Engine.default_batch_cutover);
  List.iter
    (fun cells ->
      let plan = Shard.plan ~cells_x:cells ~cells_y:cells topology in
      Array.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "%dx%d cell %d lies below the cutover" cells cells
               c.Shard.id)
            true
            (Array.length c.Shard.nodes <= Engine.default_batch_cutover))
        plan.Shard.cells)
    [ 2; 3 ]

(* Batched against singleton runs of [program] on 33x33, for every link
   model and both impls, all against the Reference twin (which never
   batches): the Fast twin's keyed bus, each cell's keyed bus (the twin's
   restricted to that cell), every run's counters and per-node state, and
   with [merged] the Coupled.events stream.  [faults] (global ids) are
   armed in every run; a multi-cell run mirrors each global-loss change per
   cell, so its counters and merged stream are compared without
   Link_changed. *)
let check_batched_vs_singleton ?(faults = []) ~merged ~program ~until label =
  let topology = grid33 () in
  let no_links_changed =
    List.filter (fun ev ->
        match ev with Event.Link_changed _ -> false | _ -> true)
  in
  List.iter
    (fun (lname, link) ->
      let seq impl =
        let tap = ref (fun () -> []) in
        let obs =
          seq_obs ~impl ~program
            ~arm:(fun e ->
              arm_faults_seq faults e;
              tap := keyed_tap e)
            ~topology ~link ~until ()
        in
        (obs, !tap ())
      in
      let twin, twin_keyed = seq Engine.Reference in
      let twin_stream = List.map snd twin_keyed in
      let fast, fast_keyed = seq Engine.Fast in
      let label = Printf.sprintf "%s/%s" label lname in
      check_obs (label ^ ": batched twin = reference twin") twin fast;
      Alcotest.(check bool)
        (label ^ ": batched twin keyed bus = reference twin keyed bus")
        true (fast_keyed = twin_keyed);
      List.iter
        (fun (iname, impl) ->
          List.iter
            (fun cells ->
              let label = Printf.sprintf "%s/%s/%dx%d" label iname cells cells in
              let plan = Shard.plan ~cells_x:cells ~cells_y:cells topology in
              let recorder = Coupled.recorder () in
              let taps = Array.make (cells * cells) (fun () -> []) in
              let obs =
                coupled_obs ~impl ~program ~arm:(arm_faults_cell faults)
                  ~monitor:(fun ~cell e ->
                    Coupled.monitor recorder ~cell e;
                    taps.(cell.Shard.id) <- keyed_tap e)
                  ~cells_x:cells ~cells_y:cells ~topology ~link ~until ()
              in
              check_obs ~skip_link_changes:(cells > 1)
                (label ^ ": coupled = reference twin")
                twin obs;
              Array.iteri
                (fun c tap ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: cell %d keyed bus = reference twin's"
                       label c)
                    true
                    (tap ()
                    = List.filter
                        (fun (_, ev) ->
                          let ec = emitting_cell plan ev in
                          ec = c || ec < 0)
                        twin_keyed))
                taps;
              if merged then
                Alcotest.(check bool)
                  (label ^ ": merged stream = reference twin bus")
                  true
                  (no_links_changed (Array.to_list (Coupled.events recorder))
                  = no_links_changed twin_stream))
            [ 1; 2; 3 ])
        [ ("fast", Engine.Fast); ("ref", Engine.Reference) ])
    links

let test_batch_wave () =
  check_batched_vs_singleton ~merged:true ~program:wave_program ~until:6.0
    "33x33/wave"

(* Zero-delay timers land at their delivery's timestamp, under keys that
   can fall between two recipients of one batch: the batch must split.  A
   forwarder keyed below its sender fires its timer before the sender's
   next recipient, out of key order; Coupled.events merges the per-cell
   streams by head key, which keeps that order. *)
let test_batch_zero_timer () =
  check_batched_vs_singleton ~merged:true ~program:zero_wave_program
    ~until:6.0 "33x33/zero-timer"

let test_batch_faults () =
  let plan = Shard.plan ~cells_x:2 ~cells_y:2 (grid33 ()) in
  check_batched_vs_singleton
    ~faults:(coupled_fault_times ~bnode:(first_boundary_node plan))
    ~merged:true ~program:zero_wave_program ~until:8.0 "33x33/faults"

(* A stop between two recipients of a batch leaves the rest queued, as
   the singleton events would be: the Fast (batched) twin and the
   Reference twin agree at the stop and after [step] drains the queue. *)
let test_batch_stop () =
  let topology = grid33 () in
  let until = 4.0 in
  let run ~impl ~link ~stop_at =
    let e =
      Shard.sequential_engine ~impl ~topology ~link ~seed:42
        ~program:wave_program ()
    in
    let seen = ref 0 in
    Engine.subscribe e (function
      | Event.Delivery _ ->
        incr seen;
        if !seen = stop_at then Engine.stop e
      | _ -> ());
    Engine.run_until e until;
    let at_stop = (Engine.counters e, Engine.next_event_time e) in
    while
      match Engine.next_event_time e with Some at -> at <= until | None -> false
    do
      ignore (Engine.step e)
    done;
    (at_stop, Engine.counters e)
  in
  List.iter
    (fun (lname, link) ->
      for stop_at = 1001 to 1004 do
        let label = Printf.sprintf "stop/%s/%d" lname stop_at in
        let (ref_c, ref_next), ref_end =
          run ~impl:Engine.Reference ~link ~stop_at
        in
        let (fast_c, fast_next), fast_end = run ~impl:Engine.Fast ~link ~stop_at in
        check_counters (label ^ " at stop") ref_c fast_c;
        Alcotest.(check (option (float 0.0)))
          (label ^ ": next event") ref_next fast_next;
        check_counters (label ^ " drained") ref_end fast_end
      done)
    links

let () =
  Alcotest.run "engine-equivalence"
    [
      ( "scenario families",
        [
          Alcotest.test_case "das: all links x modes" `Quick test_das_family;
          Alcotest.test_case "das with airtime" `Quick test_das_with_airtime;
          Alcotest.test_case "phantom: all links x walks" `Quick
            test_phantom_family;
          Alcotest.test_case "fake sources: all links" `Quick test_fake_family;
        ] );
      ( "engine internals",
        [
          Alcotest.test_case "states + traces, all links" `Quick
            test_engine_states;
          Alcotest.test_case "states + traces with airtime" `Quick
            test_engine_states_airtime;
          Alcotest.test_case "crashes, revival, link overrides" `Quick
            test_fault_equivalence;
          Alcotest.test_case "das with mid-setup crashes" `Quick
            test_das_with_crashes;
          Alcotest.test_case "mid-run stop" `Quick test_stop_equivalence;
        ] );
      ( "coupled sharding",
        [
          Alcotest.test_case "plan: cut links and ports" `Quick
            test_plan_cut_links;
          Alcotest.test_case "coupled = sequential, links x topologies" `Quick
            test_coupled_vs_sequential;
          Alcotest.test_case "boundary crash + faults mid-window" `Quick
            test_coupled_faults;
          Alcotest.test_case "merged event stream = sequential bus" `Quick
            test_coupled_event_stream;
          Alcotest.test_case "offline hunter = live hunter" `Quick
            test_coupled_hunter;
          Alcotest.test_case "coupled domain-count invariance" `Quick
            test_coupled_domain_invariance;
          Alcotest.test_case "a stopped cell ends the run" `Quick
            test_coupled_stop;
          Alcotest.test_case "101x101 acceptance, links x domains" `Slow
            test_coupled_101;
          QCheck_alcotest.to_alcotest prop_coupled_cell_count_invariance;
        ] );
      ( "coupled batch",
        [
          Alcotest.test_case "33x33 regimes straddle the cutover" `Quick
            test_batch_regimes;
          Alcotest.test_case "33x33 wave: batched = singleton" `Quick
            test_batch_wave;
          Alcotest.test_case "33x33 zero-delay timers split" `Quick
            test_batch_zero_timer;
          Alcotest.test_case "33x33 faults: batched = singleton" `Quick
            test_batch_faults;
          Alcotest.test_case "33x33 stop mid-batch" `Quick test_batch_stop;
        ] );
    ]
