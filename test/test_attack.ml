(* Tests for the adversary zoo (lib/attack) and its consumers:

   - the [Model.Local] port checked byte-for-byte against an inline
     reference fold of the original hunter rule, across all three link
     models;
   - live (bus-subscribed) and folded (recorded-stream) hunters agreeing
     verdict-for-verdict for every class;
   - domain-count invariance of runner fan-out and cell-count invariance
     of coupled captures, per class (QCheck);
   - the Monte-Carlo certifier against the exhaustive [Verifier] on small
     grids where both run (QCheck differential), and against the
     all-trials oracle in mc_verify_oracle.ml (branch-free short-circuit);
   - Wilson-interval sanity, the serve-layer MC cache, [Batch.run_many_mc]
     and the attacker-labelled resilience counters. *)

module Topology = Slpdas_wsn.Topology
module Graph = Slpdas_wsn.Graph
module Rng = Slpdas_util.Rng
module Gcn = Slpdas_gcn
module Engine = Slpdas_sim.Engine
module Event = Slpdas_sim.Event
module Link_model = Slpdas_sim.Link_model
module Shard = Slpdas_sim.Shard
module Das_build = Slpdas_core.Das_build
module Attacker = Slpdas_core.Attacker
module Verifier = Slpdas_core.Verifier
module Safety = Slpdas_core.Safety
module Slp_refine = Slpdas_core.Slp_refine
module Model = Slpdas_attack.Model
module Hunter = Slpdas_attack.Hunter
module Mc_verify = Slpdas_attack.Mc_verify
module Coupled = Slpdas_exp.Coupled
module Phantom_runner = Slpdas_exp.Phantom_runner
module Sector_runner = Slpdas_exp.Sector_runner
module Service = Slpdas_serve.Service
module Batch = Slpdas_serve.Batch
module Resilience = Slpdas_fault.Resilience

let links =
  [
    ("ideal", Link_model.Ideal);
    ("lossy", Link_model.Lossy 0.25);
    ("gaussian", Link_model.default_gaussian);
  ]

let classes =
  [ Model.Local; Model.Global; Model.Coop 3; Model.Sector_phantom ]

let class_of_index i = List.nth classes (i mod List.length classes)

(* Repeating flooder from node 0 (the hunters' prey): same shape as the
   engine-equivalence suite's wave program, broadcast-heavy so every link
   model draws randomness and the hunters see plenty of observations. *)
let go_timer = Gcn.Timer.intern "attack-go"

let wave_program ~self =
  let init ~self =
    ( (0, -1),
      if self = 0 then [ Gcn.Set_timer { timer = go_timer; after = 1.0 } ]
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
            Some ((msg, sender), [ Gcn.Broadcast msg ])
          | _ -> None);
    }
  in
  ignore self;
  { Gcn.init; actions = [ go; forward ]; spontaneous = [] }

let message_id msg = Some msg

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let verdict_testable =
  Alcotest.testable
    (fun ppf (v : Hunter.verdict) ->
      Format.fprintf ppf "loc=%d path=[%s] capture=%s" v.Hunter.location
        (String.concat ";" (List.map string_of_int v.Hunter.path))
        (match v.Hunter.capture_time with
        | None -> "none"
        | Some t -> Printf.sprintf "%.6f" t))
    (fun a b ->
      a.Hunter.location = b.Hunter.location
      && List.equal Int.equal a.Hunter.path b.Hunter.path
      && Option.equal Float.equal a.Hunter.capture_time b.Hunter.capture_time)

(* Run the wave on a sequential engine with a live class-[cls] hunter
   subscribed, and return (live verdict, recorded stream). *)
let live_run ?(dim = 6) ?(seed = 42) ?(until = 14.0) ~cls ~hunter_seed link =
  let topology = Topology.grid dim in
  let n = Graph.n topology.Topology.graph in
  let start = n - 1 and source = 0 in
  let e =
    Shard.sequential_engine ~impl:Engine.Fast ~topology ~link ~seed
      ~program:wave_program ()
  in
  let stream = Coupled.tap e in
  let live =
    Hunter.attach cls ~start ~source ~seed:hunter_seed ~message_id e
  in
  Engine.run_until e until;
  (topology, start, source, Hunter.verdict live, stream ())

(* ------------------------------------------------------------------ *)
(* Model registry                                                     *)
(* ------------------------------------------------------------------ *)

let test_model_strings () =
  List.iter
    (fun cls ->
      match Model.of_string (Model.to_string cls) with
      | Ok cls' ->
        Alcotest.(check bool)
          (Model.to_string cls ^ " roundtrips")
          true (Model.equal cls cls')
      | Error e -> Alcotest.failf "roundtrip %s: %s" (Model.to_string cls) e)
    (Model.Coop 1 :: Model.Coop 7 :: classes);
  (match Model.of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus parsed"
  | Error msg ->
    List.iter
      (fun name ->
        Alcotest.(check bool)
          (Printf.sprintf "error lists %S" name)
          true
          (contains ~affix:name msg))
      Model.all_names);
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" bad)
        true
        (Result.is_error (Model.of_string bad)))
    [ "coop:0"; "coop:-2"; "coop:"; "coop:x"; "Local"; "" ]

let test_placements () =
  let n = 36 and start = 35 in
  let p = Model.placements ~n ~start ~seed:9 5 in
  Alcotest.(check int) "length" 5 (Array.length p);
  Alcotest.(check int) "walker 0 at start" start p.(0);
  Array.iter
    (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < n))
    p;
  let sorted = Array.copy p in
  Array.sort Int.compare sorted;
  for i = 1 to Array.length sorted - 1 do
    Alcotest.(check bool) "distinct" true (sorted.(i - 1) <> sorted.(i))
  done;
  Alcotest.(check bool) "seed-deterministic" true
    (p = Model.placements ~n ~start ~seed:9 5)

(* ------------------------------------------------------------------ *)
(* Local port: inline reference fold                                  *)
(* ------------------------------------------------------------------ *)

(* The original hard-coded hunter rule, restated from scratch: act at most
   once per message id, only on audible senders (the hunter's position or a
   1-hop neighbour), move to the sender, capture on reaching the source. *)
let reference_local ~graph ~start ~source stream =
  let acted = Hashtbl.create 64 in
  let loc = ref start
  and path_rev = ref [ start ]
  and capture = ref None in
  Array.iter
    (fun ev ->
      match ev with
      | Event.Broadcast { time; sender; msg } when !capture = None -> (
        match message_id msg with
        | Some id
          when (not (Hashtbl.mem acted id))
               && (sender = !loc || Graph.mem_edge graph !loc sender) ->
          Hashtbl.add acted id ();
          if sender <> !loc then begin
            path_rev := sender :: !path_rev;
            loc := sender;
            if sender = source then capture := Some time
          end
        | Some _ | None -> ())
      | _ -> ())
    stream;
  {
    Hunter.location = !loc;
    path = List.rev !path_rev;
    capture_time = !capture;
  }

let test_local_reference_fold () =
  List.iter
    (fun (lname, link) ->
      let topology, start, source, live, stream =
        live_run ~cls:Model.Local ~hunter_seed:0 link
      in
      let graph = topology.Topology.graph in
      let reference = reference_local ~graph ~start ~source stream in
      let folded =
        Hunter.fold Model.Local ~graph
          ~positions:topology.Topology.positions ~start ~source ~seed:0
          ~message_id stream
      in
      Alcotest.(check verdict_testable)
        (lname ^ ": port = reference fold")
        reference folded;
      Alcotest.(check verdict_testable)
        (lname ^ ": live = reference fold")
        reference live;
      (* The wave floods from the source every second, so under the ideal
         link the hunter must converge — guard against a vacuous pass. *)
      if String.equal lname "ideal" then
        Alcotest.(check bool)
          (lname ^ ": captures")
          true
          (live.Hunter.capture_time <> None))
    links

(* Live (bus-subscribed, engine-stopping) and folded (pure replay) hunters
   share one step rule per class; their verdicts must agree on the same
   stream for every class and link model. *)
let test_live_vs_fold () =
  List.iter
    (fun (lname, link) ->
      List.iter
        (fun cls ->
          let topology, start, source, live, stream =
            live_run ~cls ~hunter_seed:5 link
          in
          let folded =
            Hunter.fold cls ~graph:topology.Topology.graph
              ~positions:topology.Topology.positions ~start ~source ~seed:5
              ~message_id stream
          in
          Alcotest.(check verdict_testable)
            (Printf.sprintf "%s/%s: live = fold" lname (Model.to_string cls))
            live folded)
        classes)
    links

(* ------------------------------------------------------------------ *)
(* Domain- and cell-count invariance per class                        *)
(* ------------------------------------------------------------------ *)

let prop_runner_domain_invariance =
  QCheck.Test.make ~count:12
    ~name:"phantom run_many: domains 1 = domains 2, every attacker class"
    QCheck.(pair (int_bound 10_000) (int_bound 3))
    (fun (seed, ci) ->
      let cls = class_of_index ci in
      let topology = Topology.grid 5 in
      let configs =
        List.map
          (fun (i, link) ->
            { Phantom_runner.topology; walk_length = 2; link; seed = seed + i })
          [ (0, Link_model.Ideal); (1, Link_model.Lossy 0.2) ]
      in
      let r1 = Phantom_runner.run_many ~domains:1 ~hunter:cls configs in
      let r2 = Phantom_runner.run_many ~domains:2 ~hunter:cls configs in
      r1 = r2)

let prop_coupled_cell_invariance =
  QCheck.Test.make ~count:6
    ~name:"coupled capture: 1x1 cells = 2x2 cells, every attacker class"
    QCheck.(pair (int_bound 10_000) (int_bound 3))
    (fun (seed, ci) ->
      let cls = class_of_index ci in
      let topology = Topology.grid 6 in
      let n = Graph.n topology.Topology.graph in
      let start = n - 1 and source = 0 in
      let capture ~domains ~cells_x ~cells_y =
        let plan = Shard.plan ~cells_x ~cells_y topology in
        Coupled.capture ~domains ~hunter:cls ~hunter_seed:5 plan
          ~link:(Link_model.Lossy 0.2) ~seed ~program:wave_program
          ~until:10.0 ~start ~source ~message_id ()
      in
      let one = capture ~domains:1 ~cells_x:1 ~cells_y:1 in
      let four = capture ~domains:1 ~cells_x:2 ~cells_y:2 in
      let four_par = capture ~domains:2 ~cells_x:2 ~cells_y:2 in
      one = four && four = four_par)

(* ------------------------------------------------------------------ *)
(* Monte-Carlo certification vs the exhaustive verifier               *)
(* ------------------------------------------------------------------ *)

let schedule_for dim seed =
  let topology = Topology.grid dim in
  let g = topology.Topology.graph in
  let das =
    Das_build.build ~rng:(Rng.create seed) g ~sink:topology.Topology.sink
  in
  let delta_ss = Topology.source_sink_distance topology in
  let sp = Safety.safety_periods ~delta_ss () in
  (topology, g, das.Das_build.schedule, sp)

(* The canonical (1, 0, 1, sink, lowest-slot) attacker resolves every
   [Verifier.successors] call to at most one candidate, so the Local trial
   walk is deterministic and the Monte-Carlo verdict must coincide with the
   exhaustive one exactly: Safe <-> zero captures, Captured p <-> every
   trial captures in p periods. *)
let prop_mc_vs_exhaustive =
  QCheck.Test.make ~count:40
    ~name:"MC certifier agrees with exhaustive verifier (canonical attacker)"
    QCheck.(pair (int_range 4 6) (int_bound 10_000))
    (fun (dim, seed) ->
      let topology, g, sched, sp = schedule_for dim seed in
      let attacker = Attacker.canonical ~start:topology.Topology.sink in
      let source = topology.Topology.source in
      let exhaustive =
        Verifier.verify g sched ~attacker ~safety_period:sp ~source
      in
      let mc =
        Mc_verify.certify
          { Mc_verify.cls = Model.Local; attacker; trials = 32; seed }
          g sched ~safety_period:sp ~source
      in
      match exhaustive with
      | Verifier.Safe -> mc.Mc_verify.captures = 0
      | Verifier.Captured { periods; _ } ->
        mc.Mc_verify.captures = mc.Mc_verify.trials
        && mc.Mc_verify.min_periods = Some periods)

(* A nondeterministic attacker (r = 2 widens the candidate set) only admits
   the soundness direction: any sampled capture is an admissible trace, so
   the exhaustive verdict cannot be Safe. *)
let prop_mc_sound =
  QCheck.Test.make ~count:25
    ~name:"MC captures imply exhaustive Captured (r = 2 attacker)"
    QCheck.(pair (int_range 4 5) (int_bound 10_000))
    (fun (dim, seed) ->
      let topology, g, sched, sp = schedule_for dim seed in
      let attacker =
        Attacker.make ~r:2 ~h:0 ~m:1 ~start:topology.Topology.sink ()
      in
      let source = topology.Topology.source in
      let mc =
        Mc_verify.certify
          { Mc_verify.cls = Model.Local; attacker; trials = 32; seed }
          g sched ~safety_period:sp ~source
      in
      mc.Mc_verify.captures = 0
      ||
      match Verifier.verify g sched ~attacker ~safety_period:sp ~source with
      | Verifier.Captured _ -> true
      | Verifier.Safe -> false)

let mc_result_testable =
  Alcotest.testable
    (fun ppf (r : Mc_verify.result) ->
      Format.fprintf ppf "%d/%d captures, min=%s, p=%.6f [%.6f, %.6f]"
        r.Mc_verify.captures r.Mc_verify.trials
        (match r.Mc_verify.min_periods with
        | None -> "-"
        | Some p -> string_of_int p)
        r.Mc_verify.p_hat r.Mc_verify.wilson_low r.Mc_verify.wilson_high)
    (fun a b ->
      a.Mc_verify.trials = b.Mc_verify.trials
      && a.Mc_verify.captures = b.Mc_verify.captures
      && a.Mc_verify.min_periods = b.Mc_verify.min_periods
      && Float.equal a.Mc_verify.p_hat b.Mc_verify.p_hat
      && Float.equal a.Mc_verify.wilson_low b.Mc_verify.wilson_low
      && Float.equal a.Mc_verify.wilson_high b.Mc_verify.wilson_high)

let test_mc_domain_invariance () =
  let topology, g, sched, sp = schedule_for 5 11 in
  let attacker = Attacker.canonical ~start:topology.Topology.sink in
  let source = topology.Topology.source in
  List.iter
    (fun cls ->
      let certify domains =
        Mc_verify.certify ~domains
          { Mc_verify.cls; attacker; trials = 64; seed = 7 }
          g sched ~safety_period:sp ~source
      in
      Alcotest.(check mc_result_testable)
        (Model.to_string cls ^ ": domains 1 = domains 2")
        (certify 1) (certify 2);
      Alcotest.(check mc_result_testable)
        (Model.to_string cls ^ ": domains 1 = domains 4")
        (certify 1) (certify 4))
    classes

let test_wilson_bounds () =
  List.iter
    (fun (trials, captures) ->
      let r = Mc_verify.make_result ~trials ~captures ~min_periods:None in
      let label = Printf.sprintf "%d/%d" captures trials in
      Alcotest.(check bool) (label ^ ": low >= 0") true (r.Mc_verify.wilson_low >= 0.);
      Alcotest.(check bool) (label ^ ": high <= 1") true (r.Mc_verify.wilson_high <= 1.);
      Alcotest.(check bool)
        (label ^ ": low <= p_hat <= high")
        true
        (r.Mc_verify.wilson_low <= r.Mc_verify.p_hat
        && r.Mc_verify.p_hat <= r.Mc_verify.wilson_high))
    [ (64, 0); (64, 1); (64, 32); (64, 64); (1, 0); (1, 1); (1000, 500) ];
  (* Zero captures still leave a non-trivial upper bound: the one-sided
     Wilson bound at 0/64 is ~5.7%, the certificate the churn probes use. *)
  let z = Mc_verify.make_result ~trials:64 ~captures:0 ~min_periods:None in
  Alcotest.(check (float 1e-9)) "0/64 p_hat" 0.0 z.Mc_verify.p_hat;
  Alcotest.(check bool) "0/64 upper bound ~5.7%" true
    (z.Mc_verify.wilson_high > 0.04 && z.Mc_verify.wilson_high < 0.07);
  let full = Mc_verify.make_result ~trials:64 ~captures:64 ~min_periods:(Some 3) in
  Alcotest.(check (float 1e-9)) "64/64 p_hat" 1.0 full.Mc_verify.p_hat;
  Alcotest.(check bool) "64/64 lower bound < 1" true
    (full.Mc_verify.wilson_low < 1.0)

(* ------------------------------------------------------------------ *)
(* Mc_verify.certify vs the all-trials oracle                         *)
(* ------------------------------------------------------------------ *)

module Oracle = Mc_verify_oracle

(* The weak (Phase-1) schedule and, when refinement applies, the SLP one,
   built the way the CLI's [build_schedule] builds them (sd = 3, gap = 1). *)
let oracle_schedules dim seed =
  let topology = Topology.grid dim in
  let g = topology.Topology.graph in
  let rng = Rng.create seed in
  let das = Das_build.build ~rng g ~sink:topology.Topology.sink in
  let delta_ss = Topology.source_sink_distance topology in
  let slp =
    Slp_refine.refine ~rng ~gap:1 g ~das ~search_distance:3
      ~change_length:(max 1 (delta_ss - 3))
  in
  ( topology,
    Safety.safety_periods ~delta_ss (),
    ("weak", das.Das_build.schedule)
    :: Option.fold ~none:[]
         ~some:(fun r -> [ ("slp", r.Slp_refine.refined) ])
         slp )

let oracle_deciders =
  [
    ("lowest-slot", Attacker.lowest_slot);
    ("history-avoiding", Attacker.lowest_slot_avoiding_history);
    ("second-lowest", Attacker.second_lowest);
  ]

(* Every class x (r, h, m) budget x pure decider, on weak and SLP schedules
   of grids 7-15, at one and two domains.  Branching classes (coop and
   sector-phantom at r >= 2) must show up with 0 < captures < trials, or
   the comparison never reaches the full-trial path. *)
let test_oracle_budgets () =
  let partial = ref 0 and compared = ref 0 in
  List.iter
    (fun (dim, seed) ->
      let topology, sp, schedules = oracle_schedules dim seed in
      let g = topology.Topology.graph in
      let source = topology.Topology.source in
      List.iter
        (fun (kind, sched) ->
          List.iter
            (fun cls ->
              List.iter
                (fun (r, h, m) ->
                  List.iteri
                    (fun di (dname, decide) ->
                      let attacker =
                        Attacker.make ~decide ~decide_name:dname ~r ~h ~m
                          ~start:topology.Topology.sink ()
                      in
                      let spec =
                        { Mc_verify.cls; attacker; trials = 24; seed = seed + di }
                      in
                      let expected =
                        Oracle.certify spec g sched ~safety_period:sp ~source
                      in
                      if
                        expected.Mc_verify.captures > 0
                        && expected.Mc_verify.captures < expected.Mc_verify.trials
                      then incr partial;
                      List.iter
                        (fun domains ->
                          incr compared;
                          Alcotest.(check mc_result_testable)
                            (Printf.sprintf "%dx%d %s %s r%d h%d m%d %s d%d"
                               dim dim kind (Model.to_string cls) r h m dname
                               domains)
                            expected
                            (Mc_verify.certify ~domains spec g sched
                               ~safety_period:sp ~source))
                        [ 1; 2 ])
                    (match cls with
                    | Model.Local -> oracle_deciders
                    | _ -> [ List.hd oracle_deciders ]))
                [
                  (1, 0, 1); (1, 2, 2); (2, 0, 1); (2, 2, 2); (3, 0, 2);
                  (3, 2, 1);
                ])
            classes)
        schedules)
    [ (7, 1); (9, 2); (11, 3); (13, 4); (15, 5) ];
  Alcotest.(check bool)
    (Printf.sprintf "branching trials reached (%d of %d comparisons)" !partial
       !compared)
    true (!partial > 0)

(* A decider that captures an [Rng] draws across trials: its walks differ
   from trial to trial although no candidate list ever has two entries, so
   the short-circuit must not fire and every trial must run. *)
let test_oracle_impure_decider () =
  let partial = ref 0 in
  List.iter
    (fun (dim, seed) ->
      let topology, sp, schedules = oracle_schedules dim seed in
      let g = topology.Topology.graph in
      let source = topology.Topology.source in
      List.iter
        (fun (kind, sched) ->
          let certify f =
            let attacker =
              Attacker.make
                ~decide:(Attacker.epsilon_greedy (Rng.create seed) ~epsilon:0.5)
                ~decide_name:"epsilon-greedy" ~r:2 ~h:0 ~m:2
                ~start:topology.Topology.sink ()
            in
            f { Mc_verify.cls = Model.Local; attacker; trials = 48; seed }
              g sched ~safety_period:sp ~source
          in
          let expected = certify (Oracle.certify ~domains:1) in
          if
            expected.Mc_verify.captures > 0
            && expected.Mc_verify.captures < expected.Mc_verify.trials
          then incr partial;
          Alcotest.(check mc_result_testable)
            (Printf.sprintf "%dx%d %s epsilon-greedy" dim dim kind)
            expected
            (certify (Mc_verify.certify ~domains:1)))
        schedules)
    [ (7, 1); (7, 2); (9, 3); (11, 4) ];
  Alcotest.(check bool) "some certification splits its trials" true
    (!partial > 0)

(* ------------------------------------------------------------------ *)
(* Serve layer: MC cache and batch fan-out                            *)
(* ------------------------------------------------------------------ *)

let test_service_mc_cache () =
  let topology, g, sched, sp = schedule_for 5 3 in
  let attacker = Attacker.canonical ~start:topology.Topology.sink in
  let source = topology.Topology.source in
  let service = Service.create () in
  let certify cls =
    Service.mc_certify service g sched ~cls ~attacker ~trials:64 ~seed:3
      ~safety_period:sp ~source
  in
  let direct =
    Mc_verify.certify
      { Mc_verify.cls = Model.Global; attacker; trials = 64; seed = 3 }
      g sched ~safety_period:sp ~source
  in
  let cold = certify Model.Global in
  let warm = certify Model.Global in
  Alcotest.(check mc_result_testable) "service = direct" direct cold;
  Alcotest.(check mc_result_testable) "warm = cold" cold warm;
  let s = Service.stats service in
  Alcotest.(check int) "served 2" 2 s.Service.served;
  Alcotest.(check int) "computed once" 1 s.Service.computed;
  Alcotest.(check int) "one MC cache hit" 1 s.Service.mc.Slpdas_serve.Cache.hits;
  (* A different class is a different key, not a hit. *)
  let _ = certify (Model.Coop 3) in
  Alcotest.(check int) "distinct class recomputes" 2
    (Service.stats service).Service.computed

let test_service_mc_uncacheable () =
  let topology, g, sched, sp = schedule_for 5 3 in
  (* An unregistered decider name cannot be digested into a key: both calls
     must compute, and both must still return the same (seeded) answer. *)
  let attacker =
    Attacker.make ~decide:Attacker.lowest_slot ~decide_name:"bespoke" ~r:1
      ~h:0 ~m:1 ~start:topology.Topology.sink ()
  in
  let source = topology.Topology.source in
  let service = Service.create () in
  let certify () =
    Service.mc_certify service g sched ~cls:Model.Local ~attacker ~trials:32
      ~seed:5 ~safety_period:sp ~source
  in
  let first = certify () in
  let second = certify () in
  Alcotest.(check mc_result_testable) "deterministic" first second;
  Alcotest.(check int) "computed twice" 2
    (Service.stats service).Service.computed

let test_batch_run_many_mc () =
  let topology, g, sched, sp = schedule_for 5 3 in
  let attacker = Attacker.canonical ~start:topology.Topology.sink in
  let source = topology.Topology.source in
  let item cls seed =
    {
      Batch.mc_graph = g;
      mc_schedule = sched;
      cls;
      mc_attacker = attacker;
      trials = 32;
      seed;
      mc_safety_period = sp;
      mc_source = source;
    }
  in
  (* A duplicated item must be deduped into one computation; answers come
     back in input order at any domain count. *)
  let items =
    [ item Model.Global 1; item (Model.Coop 2) 1; item Model.Global 1 ]
  in
  let run domains =
    let service = Service.create () in
    let answers = Batch.run_many_mc ~domains service items in
    (answers, (Service.stats service).Service.computed)
  in
  let a1, computed1 = run 1 in
  let a2, _ = run 2 in
  Alcotest.(check int) "three answers" 3 (List.length a1);
  Alcotest.(check int) "two distinct computations" 2 computed1;
  List.iteri
    (fun i (x, y) ->
      Alcotest.(check mc_result_testable)
        (Printf.sprintf "answer %d: domains 1 = 2" i)
        x y)
    (List.combine a1 a2);
  Alcotest.(check mc_result_testable) "dup = first"
    (List.nth a1 0) (List.nth a1 2);
  let direct it =
    Mc_verify.certify
      {
        Mc_verify.cls = it.Batch.cls;
        attacker = it.Batch.mc_attacker;
        trials = it.Batch.trials;
        seed = it.Batch.seed;
      }
      it.Batch.mc_graph it.Batch.mc_schedule
      ~safety_period:it.Batch.mc_safety_period ~source:it.Batch.mc_source
  in
  List.iteri
    (fun i (it, ans) ->
      Alcotest.(check mc_result_testable)
        (Printf.sprintf "answer %d = direct" i)
        (direct it) ans)
    (List.combine items a1)

(* ------------------------------------------------------------------ *)
(* Resilience counters name their adversary                           *)
(* ------------------------------------------------------------------ *)

let test_resilience_attacker () =
  let c = { Resilience.empty with Resilience.runs = 1; attacker = "coop:3" } in
  Alcotest.(check bool) "to_json names the class" true
    (contains ~affix:"\"attacker\": \"coop:3\""
       (Resilience.to_json c));
  Alcotest.(check bool) "empty defaults to local" true
    (contains ~affix:"\"attacker\": \"local\""
       (Resilience.to_json Resilience.empty));
  let m = Resilience.merge Resilience.empty c in
  Alcotest.(check string) "merge with empty keeps the name" "coop:3"
    m.Resilience.attacker;
  let d = { Resilience.empty with Resilience.runs = 2; attacker = "global" } in
  Alcotest.(check string) "first non-empty wins" "coop:3"
    (Resilience.merge c d).Resilience.attacker;
  Alcotest.(check string) "merge_all folds in input order" "global"
    (Resilience.merge_all [ Resilience.empty; d; c ]).Resilience.attacker

(* ------------------------------------------------------------------ *)
(* Sector-phantom runner (third comparison family)                    *)
(* ------------------------------------------------------------------ *)

let test_sector_runner () =
  let topology = Topology.grid 5 in
  let config =
    {
      Sector_runner.topology;
      walk_length = 3;
      num_sectors = 8;
      link = Link_model.Ideal;
      seed = 11;
    }
  in
  let r = Sector_runner.run config in
  Alcotest.(check bool) "captured <-> capture_seconds" r.Sector_runner.captured
    (r.Sector_runner.capture_seconds <> None);
  Alcotest.(check bool) "messages flowed" true (r.Sector_runner.messages_sent > 0);
  Alcotest.(check bool) "source spoke" true (r.Sector_runner.source_messages > 0);
  Alcotest.(check bool) "deterministic" true (Sector_runner.run config = r);
  (* The runner honours the adversary registry like its siblings. *)
  let g = Sector_runner.run ~hunter:Model.Global config in
  Alcotest.(check bool) "global hunter runs" true
    (g.Sector_runner.duration_seconds > 0.)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "attack"
    [
      ( "model",
        [
          Alcotest.test_case "names" `Quick test_model_strings;
          Alcotest.test_case "coop placements" `Quick test_placements;
        ] );
      ( "hunter",
        [
          Alcotest.test_case "local port = reference fold" `Quick
            test_local_reference_fold;
          Alcotest.test_case "live = fold, all classes" `Quick
            test_live_vs_fold;
        ] );
      ( "invariance",
        [
          qc prop_runner_domain_invariance;
          qc prop_coupled_cell_invariance;
        ] );
      ( "mc",
        [
          qc prop_mc_vs_exhaustive;
          qc prop_mc_sound;
          Alcotest.test_case "domain invariance" `Quick
            test_mc_domain_invariance;
          Alcotest.test_case "wilson bounds" `Quick test_wilson_bounds;
        ] );
      ( "mc-oracle",
        [
          Alcotest.test_case "classes x budgets, grids 7-15" `Quick
            test_oracle_budgets;
          Alcotest.test_case "impure decider runs every trial" `Quick
            test_oracle_impure_decider;
        ] );
      ( "serve",
        [
          Alcotest.test_case "mc cache" `Quick test_service_mc_cache;
          Alcotest.test_case "uncacheable decider" `Quick
            test_service_mc_uncacheable;
          Alcotest.test_case "batch run_many_mc" `Quick test_batch_run_many_mc;
        ] );
      ( "fault",
        [ Alcotest.test_case "resilience attacker" `Quick test_resilience_attacker ] );
      ( "families",
        [ Alcotest.test_case "sector runner" `Quick test_sector_runner ] );
    ]
