(* Tests for Slpdas_core: schedules, DAS checkers, the reference builder,
   the attacker model, the verifier, refinement and safety arithmetic. *)

module Graph = Slpdas_wsn.Graph
module Topology = Slpdas_wsn.Topology
module Rng = Slpdas_util.Rng
module Schedule = Slpdas_core.Schedule
module Das_check = Slpdas_core.Das_check
module Das_build = Slpdas_core.Das_build
module Attacker = Slpdas_core.Attacker
module Verifier = Slpdas_core.Verifier
module Slp_refine = Slpdas_core.Slp_refine
module Safety = Slpdas_core.Safety

(* ------------------------------------------------------------------ *)
(* Schedule                                                           *)
(* ------------------------------------------------------------------ *)

let test_schedule_basic () =
  let s = Schedule.create ~n:4 ~sink:3 in
  Alcotest.(check bool) "incomplete" false (Schedule.complete s);
  Schedule.assign s 0 5;
  Schedule.assign s 1 7;
  Schedule.assign s 2 6;
  Alcotest.(check bool) "complete" true (Schedule.complete s);
  Alcotest.(check (option int)) "slot 0" (Some 5) (Schedule.slot s 0);
  Alcotest.(check (option int)) "sink none" None (Schedule.slot s 3);
  Alcotest.(check (option int)) "min" (Some 5) (Schedule.min_slot s);
  Alcotest.(check (option int)) "max" (Some 7) (Schedule.max_slot s)

let test_schedule_sink_unassignable () =
  let s = Schedule.create ~n:2 ~sink:1 in
  Alcotest.check_raises "sink" (Invalid_argument "Schedule.assign: the sink has no slot")
    (fun () -> Schedule.assign s 1 3);
  Alcotest.(check int) "sink reads none" Schedule.none (Schedule.raw_slot s 1)

let test_schedule_none_rejected () =
  let s = Schedule.create ~n:2 ~sink:1 in
  Alcotest.check_raises "none"
    (Invalid_argument "Schedule.assign: Schedule.none is not a slot")
    (fun () -> Schedule.assign s 0 Schedule.none);
  Alcotest.(check bool) "still unassigned" false (Schedule.assigned s 0)

(* The digest keys persistent verification caches, so it must not drift
   with the in-memory representation: pinned to its literal value, covering
   an assigned node, a negative slot, an unassigned node and the sink. *)
let test_schedule_digest_pinned () =
  let s = Schedule.of_alist ~n:5 ~sink:4 [ (0, 2); (1, -1); (3, 100) ] in
  Alcotest.(check string) "digest" "s1-08ad745c165fbf8b25cced139378da72"
    (Schedule.digest s);
  Alcotest.(check string) "grid"
    "    7    .\n    5  SNK\n"
    (Format.asprintf "%a"
       (Schedule.pp_grid ~dim:2)
       (Schedule.of_alist ~n:4 ~sink:3 [ (0, 7); (2, 5) ]))

let test_schedule_sender_sets () =
  let s = Schedule.of_alist ~n:5 ~sink:4 [ (0, 2); (1, 1); (2, 2); (3, 3) ] in
  Alcotest.(check (list (pair int (list int)))) "sigma sequence"
    [ (1, [ 1 ]); (2, [ 0; 2 ]); (3, [ 3 ]) ]
    (Schedule.sender_sets s)

let test_schedule_of_alist_duplicate () =
  Alcotest.check_raises "dup" (Invalid_argument "Schedule.of_alist: duplicate node 0")
    (fun () -> ignore (Schedule.of_alist ~n:3 ~sink:2 [ (0, 1); (0, 2) ]))

let test_schedule_copy_isolated () =
  let s = Schedule.of_alist ~n:3 ~sink:2 [ (0, 1) ] in
  let c = Schedule.copy s in
  Schedule.assign c 0 9;
  Alcotest.(check (option int)) "original unchanged" (Some 1) (Schedule.slot s 0);
  Alcotest.(check bool) "not equal anymore" false (Schedule.equal s c);
  Schedule.clear_slot s 0;
  Alcotest.(check int) "copy keeps its slot" 9 (Schedule.raw_slot c 0)

let test_schedule_clear () =
  let s = Schedule.of_alist ~n:3 ~sink:2 [ (0, 1); (1, 2) ] in
  Schedule.clear_slot s 0;
  Alcotest.(check (option int)) "cleared" None (Schedule.slot s 0);
  Alcotest.(check int) "raw cleared" Schedule.none (Schedule.raw_slot s 0);
  Alcotest.(check bool) "unassigned" false (Schedule.assigned s 0);
  Alcotest.(check (list (pair int int))) "to_alist" [ (1, 2) ] (Schedule.to_alist s);
  Schedule.assign s 0 4;
  Alcotest.(check (option int)) "reassigned" (Some 4) (Schedule.slot s 0)

(* ------------------------------------------------------------------ *)
(* DAS checkers on a hand-built line: 0 - 1 - 2(sink)                 *)
(* ------------------------------------------------------------------ *)

let line3 = Graph.create ~n:3 [ (0, 1); (1, 2) ]

let test_check_valid_line () =
  (* 0 transmits before 1 (0 farther from sink): strong DAS. *)
  let s = Schedule.of_alist ~n:3 ~sink:2 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "strong" true (Das_check.is_strong line3 s);
  Alcotest.(check bool) "weak" true (Das_check.is_weak line3 s);
  Alcotest.(check bool) "0 non-colliding" true (Das_check.non_colliding line3 s 0)

let test_check_unassigned () =
  let s = Schedule.of_alist ~n:3 ~sink:2 [ (0, 1) ] in
  (match Das_check.check_strong line3 s with
  | Das_check.Unassigned 1 :: _ -> ()
  | v ->
    Alcotest.failf "expected Unassigned 1, got %s"
      (String.concat "; " (List.map Das_check.violation_to_string v)));
  Alcotest.(check bool) "weak also fails" false (Das_check.is_weak line3 s)

let test_check_collision () =
  (* 0 and 1 are 1 hop apart: same slot collides (condition 4). *)
  let s = Schedule.of_alist ~n:3 ~sink:2 [ (0, 5); (1, 5) ] in
  let collisions = Das_check.collisions line3 s in
  Alcotest.(check int) "one collision" 1 (List.length collisions);
  (match collisions with
  | [ Das_check.Collision { a = 0; b = 1; slot = 5 } ] -> ()
  | _ -> Alcotest.fail "wrong collision report");
  Alcotest.(check bool) "non_colliding false" false
    (Das_check.non_colliding line3 s 0)

let test_check_two_hop_collision () =
  (* 0 and 2 are 2 hops apart in a 4-line with sink 3. *)
  let g = Graph.create ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let s = Schedule.of_alist ~n:4 ~sink:3 [ (0, 4); (1, 5); (2, 4) ] in
  let collisions = Das_check.collisions g s in
  (match collisions with
  | [ Das_check.Collision { a = 0; b = 2; slot = 4 } ] -> ()
  | _ -> Alcotest.fail "expected the 2-hop collision 0/2");
  (* Three hops apart is fine: 0 and 3 could share (3 is the sink here so
     use a 5-line instead). *)
  let g5 = Graph.create ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let s5 = Schedule.of_alist ~n:5 ~sink:4 [ (0, 4); (1, 5); (2, 6); (3, 4) ] in
  Alcotest.(check bool) "3 hops apart may share" true
    (Das_check.collisions g5 s5
    |> List.for_all (function Das_check.Collision { a = 0; b = 3; _ } -> false | _ -> true))

let test_check_strong_vs_weak_condition3 () =
  (* Node 0's only shortest-path parent (1) transmits earlier: strong fails.
     But 1 is still later than... no neighbour of 0 transmits later, so weak
     fails too. *)
  let s = Schedule.of_alist ~n:3 ~sink:2 [ (0, 3); (1, 2) ] in
  (match Das_check.check_strong line3 s with
  | [ Das_check.Early_parent { node = 0; parent = 1 } ] -> ()
  | v ->
    Alcotest.failf "expected Early_parent 0/1: %s"
      (String.concat "; " (List.map Das_check.violation_to_string v)));
  (match Das_check.check_weak line3 s with
  | [ Das_check.No_forwarder { node = 0 } ] -> ()
  | _ -> Alcotest.fail "expected No_forwarder 0")

let test_check_weak_accepts_non_tree_forwarder () =
  (* Diamond: 0 at the bottom, parents 1 and 2, sink 3.  Node 0 transmits
     after 1 (strong violation) but before 2: weak holds. *)
  let g = Graph.create ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let s = Schedule.of_alist ~n:4 ~sink:3 [ (0, 5); (1, 4); (2, 7) ] in
  Alcotest.(check bool) "strong fails" false (Das_check.is_strong g s);
  Alcotest.(check bool) "weak holds" true (Das_check.is_weak g s)

let test_check_sink_neighbour_weak () =
  (* A node adjacent to the sink always has a forwarder (m = sink). *)
  let s = Schedule.of_alist ~n:3 ~sink:2 [ (0, 1); (1, 0) ] in
  (* 1's only "later" neighbour option is the sink itself. *)
  let weak_violations =
    List.filter
      (function Das_check.No_forwarder { node = 1 } -> true | _ -> false)
      (Das_check.check_weak line3 s)
  in
  Alcotest.(check int) "sink counts as forwarder" 0 (List.length weak_violations)

(* ------------------------------------------------------------------ *)
(* Das_build                                                          *)
(* ------------------------------------------------------------------ *)

let test_build_line () =
  let g = Graph.create ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let r = Das_build.build g ~sink:3 in
  Alcotest.(check bool) "strong" true (Das_check.is_strong g r.Das_build.schedule);
  Alcotest.(check bool) "complete" true (Schedule.complete r.Das_build.schedule);
  Alcotest.(check (array int)) "hops" [| 3; 2; 1; 0 |] r.Das_build.hop;
  Alcotest.(check (option int)) "parent of 0" (Some 1) r.Das_build.parent.(0);
  Alcotest.(check (option int)) "sink parentless" None r.Das_build.parent.(3)

let test_build_deterministic () =
  let topo = Topology.grid 7 in
  let a = Das_build.build topo.Topology.graph ~sink:topo.Topology.sink in
  let b = Das_build.build topo.Topology.graph ~sink:topo.Topology.sink in
  Alcotest.(check bool) "same schedule" true
    (Schedule.equal a.Das_build.schedule b.Das_build.schedule)

let test_build_seeded_reproducible () =
  let topo = Topology.grid 7 in
  let build seed =
    Das_build.build ~rng:(Rng.create seed) topo.Topology.graph
      ~sink:topo.Topology.sink
  in
  Alcotest.(check bool) "same seed same schedule" true
    (Schedule.equal (build 5).Das_build.schedule (build 5).Das_build.schedule);
  Alcotest.(check bool) "different seeds differ" false
    (Schedule.equal (build 5).Das_build.schedule (build 6).Das_build.schedule)

let test_build_disconnected () =
  let g = Graph.create ~n:4 [ (0, 1) ] in
  let r = Das_build.build g ~sink:0 in
  Alcotest.(check bool) "incomplete" false (Schedule.complete r.Das_build.schedule);
  Alcotest.(check (option int)) "unreachable unassigned" None
    (Schedule.slot r.Das_build.schedule 3);
  Alcotest.(check (option int)) "reachable assigned" (Some 99)
    (Schedule.slot r.Das_build.schedule 1)

let test_build_delta_respected () =
  let g = Graph.create ~n:3 [ (0, 1); (1, 2) ] in
  let r = Das_build.build ~delta:50 g ~sink:2 in
  Alcotest.(check bool) "all slots below delta" true
    (List.for_all (fun (_, s) -> s < 50) (Schedule.to_alist r.Das_build.schedule))

let test_build_compact_line () =
  let g = Graph.create ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let r = Das_build.build_compact g ~sink:3 in
  (* Leaves first: 0 gets slot 0, then 1 above it, then 2. *)
  Alcotest.(check (list (pair int int))) "tight slots"
    [ (0, 0); (1, 1); (2, 2) ]
    (Schedule.to_alist r.Das_build.schedule);
  Alcotest.(check bool) "strong" true (Das_check.is_strong g r.Das_build.schedule);
  Alcotest.(check int) "length" 3 (Das_build.schedule_length r.Das_build.schedule)

let test_build_compact_provisions_fewer_slots () =
  let topo = Topology.grid 11 in
  let g = topo.Topology.graph in
  let classic = Das_build.build ~rng:(Rng.create 1) g ~sink:topo.Topology.sink in
  let compact =
    Das_build.build_compact ~rng:(Rng.create 1) g ~sink:topo.Topology.sink
  in
  (* The paper's top-down assignment hangs slots below delta = 100, so a
     TDMA period must provision ~100 slots; the compact builder packs them
     from 0 upwards. *)
  let provisioned r =
    match Schedule.max_slot r.Das_build.schedule with Some m -> m + 1 | None -> 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "compact %d << classic %d" (provisioned compact)
       (provisioned classic))
    true
    (provisioned compact * 3 < provisioned classic)

let test_schedule_length_empty () =
  Alcotest.(check int) "empty" 0
    (Das_build.schedule_length (Schedule.create ~n:3 ~sink:0))

let prop_build_compact_strong =
  QCheck.Test.make ~count:40 ~name:"compact builds are complete strong DAS"
    QCheck.(pair (int_range 3 10) (int_bound 10_000))
    (fun (dim, seed) ->
      let topo = Topology.grid dim in
      let r =
        Das_build.build_compact ~rng:(Rng.create seed) topo.Topology.graph
          ~sink:topo.Topology.sink
      in
      Schedule.complete r.Das_build.schedule
      && Das_check.is_strong topo.Topology.graph r.Das_build.schedule)

let prop_build_strong_on_grids =
  QCheck.Test.make ~count:60 ~name:"seeded builds are complete strong DAS"
    QCheck.(pair (int_range 3 12) (int_bound 10_000))
    (fun (dim, seed) ->
      let topo = Topology.grid dim in
      let r =
        Das_build.build ~rng:(Rng.create seed) topo.Topology.graph
          ~sink:topo.Topology.sink
      in
      Schedule.complete r.Das_build.schedule
      && Das_check.is_strong topo.Topology.graph r.Das_build.schedule)

let prop_build_strong_on_unit_disk =
  QCheck.Test.make ~count:20 ~name:"builds are strong DAS on random topologies"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      match
        Topology.random_unit_disk rng ~n:30 ~side:40.0 ~range:14.0 ~max_attempts:20
      with
      | None -> QCheck.assume_fail ()
      | Some topo ->
        let r =
          Das_build.build ~rng topo.Topology.graph ~sink:topo.Topology.sink
        in
        Schedule.complete r.Das_build.schedule
        && Das_check.is_strong topo.Topology.graph r.Das_build.schedule)

let prop_build_parents_are_shortest_path =
  QCheck.Test.make ~count:40 ~name:"chosen parents lie on shortest paths"
    QCheck.(pair (int_range 3 10) (int_bound 10_000))
    (fun (dim, seed) ->
      let topo = Topology.grid dim in
      let g = topo.Topology.graph in
      let r = Das_build.build ~rng:(Rng.create seed) g ~sink:topo.Topology.sink in
      List.for_all
        (fun v ->
          match r.Das_build.parent.(v) with
          | None -> v = topo.Topology.sink
          | Some p -> r.Das_build.hop.(p) = r.Das_build.hop.(v) - 1 && Graph.mem_edge g v p)
        (List.init (Graph.n g) Fun.id))

(* ------------------------------------------------------------------ *)
(* Attacker                                                           *)
(* ------------------------------------------------------------------ *)

let test_attacker_params_validation () =
  Alcotest.check_raises "r >= 1" (Invalid_argument "Attacker.make: r must be >= 1")
    (fun () -> ignore (Attacker.make ~r:0 ~h:0 ~m:1 ~start:0 ()));
  Alcotest.check_raises "m >= 1" (Invalid_argument "Attacker.make: m must be >= 1")
    (fun () -> ignore (Attacker.make ~r:1 ~h:0 ~m:0 ~start:0 ()))

let test_heard_by_orders_by_slot () =
  let g = Graph.create ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  let s = Schedule.of_alist ~n:4 ~sink:3 [ (0, 9); (1, 4); (2, 6) ] in
  let heard = Attacker.heard_by g s ~at:0 ~r:2 in
  Alcotest.(check (list (pair int int))) "two lowest in slot order"
    [ (1, 4); (2, 6) ]
    (List.map (fun h -> (h.Attacker.location, h.Attacker.slot)) heard)

let test_heard_by_includes_self () =
  let g = Graph.create ~n:3 [ (0, 1); (1, 2) ] in
  let s = Schedule.of_alist ~n:3 ~sink:2 [ (0, 2); (1, 8) ] in
  let heard = Attacker.heard_by g s ~at:0 ~r:1 in
  Alcotest.(check (list int)) "own node audible" [ 0 ]
    (List.map (fun h -> h.Attacker.location) heard)

let test_lowest_slot_decision () =
  let heard = [ { Attacker.location = 7; slot = 3 }; { Attacker.location = 2; slot = 9 } ] in
  Alcotest.(check (list int)) "first heard" [ 7 ]
    (Attacker.lowest_slot ~heard ~history:[] ~current:1);
  Alcotest.(check (list int)) "stays when own node first" []
    (Attacker.lowest_slot ~heard ~history:[] ~current:7)

let test_history_avoiding_decision () =
  let heard =
    [ { Attacker.location = 7; slot = 3 }; { Attacker.location = 2; slot = 9 } ]
  in
  Alcotest.(check (list int)) "skips visited" [ 2 ]
    (Attacker.lowest_slot_avoiding_history ~heard ~history:[ 7 ] ~current:1);
  Alcotest.(check (list int)) "all visited: stay" []
    (Attacker.lowest_slot_avoiding_history ~heard ~history:[ 7; 2 ] ~current:1)

let test_attacker_state_machine () =
  let st = Attacker.State.create (Attacker.canonical ~start:60) in
  Alcotest.(check int) "starts at s0" 60 (Attacker.State.location st);
  Attacker.State.hear st ~location:49 ~slot:80;
  Alcotest.(check bool) "moves" true (Attacker.State.decide st);
  Alcotest.(check int) "at 49" 49 (Attacker.State.location st);
  (* M = 1: a second decision in the same period must not move. *)
  Attacker.State.hear st ~location:38 ~slot:81;
  Alcotest.(check bool) "budget spent" false (Attacker.State.decide st);
  Alcotest.(check int) "still at 49" 49 (Attacker.State.location st);
  Attacker.State.period_end st;
  Attacker.State.hear st ~location:38 ~slot:70;
  Alcotest.(check bool) "moves next period" true (Attacker.State.decide st);
  Alcotest.(check (list int)) "path" [ 60; 49; 38 ] (Attacker.State.path st)

let test_attacker_r_limits_buffer () =
  let st = Attacker.State.create (Attacker.make ~r:2 ~h:0 ~m:1 ~start:0 ()) in
  Attacker.State.hear st ~location:1 ~slot:5;
  Attacker.State.hear st ~location:2 ~slot:6;
  Attacker.State.hear st ~location:3 ~slot:7 (* beyond R: dropped *);
  Alcotest.(check bool) "decides on buffered" true (Attacker.State.decide st);
  Alcotest.(check int) "moved to first heard" 1 (Attacker.State.location st)

let test_attacker_stay_consumes_move () =
  (* Fig. 1: a decision that keeps the current location still costs a move. *)
  let st = Attacker.State.create (Attacker.canonical ~start:5) in
  Attacker.State.hear st ~location:5 ~slot:1;
  Alcotest.(check bool) "stays" false (Attacker.State.decide st);
  Alcotest.(check int) "move consumed" 1 (Attacker.State.moves_made st);
  Attacker.State.hear st ~location:9 ~slot:2;
  Alcotest.(check bool) "budget exhausted" false (Attacker.State.decide st);
  Alcotest.(check int) "did not move" 5 (Attacker.State.location st)

let test_attacker_history_tracked () =
  let st = Attacker.State.create (Attacker.make ~r:1 ~h:2 ~m:5 ~start:0 ()) in
  Attacker.State.hear st ~location:1 ~slot:1;
  ignore (Attacker.State.decide st);
  Attacker.State.hear st ~location:2 ~slot:2;
  ignore (Attacker.State.decide st);
  Attacker.State.hear st ~location:3 ~slot:3;
  ignore (Attacker.State.decide st);
  Alcotest.(check (list int)) "bounded history, most recent first" [ 2; 1 ]
    (Attacker.State.history st)

(* ------------------------------------------------------------------ *)
(* Verifier                                                           *)
(* ------------------------------------------------------------------ *)

(* Line 0 - 1 - 2 - 3(sink); slots descend away from the sink, so the
   attacker starting at the sink walks straight to node 0. *)
let line4 = Graph.create ~n:4 [ (0, 1); (1, 2); (2, 3) ]
let line4_sched = Schedule.of_alist ~n:4 ~sink:3 [ (0, 1); (1, 2); (2, 3) ]

let test_verifier_captures_gradient () =
  let attacker = Attacker.canonical ~start:3 in
  match Verifier.verify line4 line4_sched ~attacker ~safety_period:10 ~source:0 with
  | Verifier.Captured { trace; periods } ->
    Alcotest.(check (list int)) "trace" [ 3; 2; 1; 0 ] trace;
    Alcotest.(check int) "periods = hops" 3 periods
  | Verifier.Safe -> Alcotest.fail "expected capture"

let test_verifier_safety_period_boundary () =
  let attacker = Attacker.canonical ~start:3 in
  Alcotest.(check bool) "delta = hops captures" false
    (Verifier.is_slp_aware line4 line4_sched ~attacker ~safety_period:3 ~source:0);
  Alcotest.(check bool) "delta = hops - 1 safe" true
    (Verifier.is_slp_aware line4 line4_sched ~attacker ~safety_period:2 ~source:0)

let test_verifier_trap_is_safe () =
  (* Node 2 (sink neighbour) has the lowest audible slot from the sink, and
     its own slot is below both neighbours: the attacker moves there and is
     stuck. *)
  let s = Schedule.of_alist ~n:4 ~sink:3 [ (0, 5); (1, 6); (2, 1) ] in
  let attacker = Attacker.canonical ~start:3 in
  Alcotest.(check bool) "trapped -> safe" true
    (Verifier.is_slp_aware line4 s ~attacker ~safety_period:50 ~source:0)

let test_verifier_m_budget_blocks_ascent () =
  (* From 2, the only candidate (1) has a higher slot: with M = 1 the
     attacker cannot take that step. *)
  let s = Schedule.of_alist ~n:4 ~sink:3 [ (0, 9); (1, 8); (2, 2) ] in
  let attacker = Attacker.canonical ~start:3 in
  Alcotest.(check bool) "ascent forbidden" true
    (Verifier.is_slp_aware line4 s ~attacker ~safety_period:50 ~source:0);
  (* Even with M = 2 the lowest-slot D proposes only the first heard, which
     from 2 is node 2 itself (slot 2 < slot 1 = 8): still safe. *)
  let attacker2 = Attacker.make ~r:1 ~h:0 ~m:2 ~start:3 () in
  Alcotest.(check bool) "self-lowest still traps" true
    (Verifier.is_slp_aware line4 s ~attacker:attacker2 ~safety_period:50 ~source:0)

let test_verifier_r2_widens_choice () =
  (* Star: centre 1 with leaves 0, 2 and sink 3.  Slots: 2 lowest, 0 next.
     With R = 1 the attacker goes 3 -> 1 -> 2 and is stuck (leaf).  With
     R = 2 and a decision that prefers the second-lowest, it can reach 0.
     We use a decide function that picks the last of the heard list. *)
  let g = Graph.create ~n:4 [ (1, 0); (1, 2); (1, 3) ] in
  let s = Schedule.of_alist ~n:4 ~sink:3 [ (0, 4); (1, 6); (2, 2) ] in
  let second ~heard ~history:_ ~current =
    match List.rev heard with
    | { Attacker.location; _ } :: _ when location <> current -> [ location ]
    | _ -> []
  in
  let weak = Attacker.canonical ~start:3 in
  let strong = Attacker.make ~decide:second ~decide_name:"second" ~r:2 ~h:0 ~m:1 ~start:3 () in
  Alcotest.(check bool) "R=1 cannot reach 0" true
    (Verifier.is_slp_aware g s ~attacker:weak ~safety_period:20 ~source:0);
  Alcotest.(check bool) "R=2 reaches 0" false
    (Verifier.is_slp_aware g s ~attacker:strong ~safety_period:20 ~source:0)

let test_verifier_counterexample_is_walk () =
  let topo = Topology.grid 7 in
  let g = topo.Topology.graph in
  let rec find_captured seed =
    if seed > 400 then None
    else begin
      let r = Das_build.build ~rng:(Rng.create seed) g ~sink:topo.Topology.sink in
      let attacker = Attacker.canonical ~start:topo.Topology.sink in
      match
        Verifier.verify g r.Das_build.schedule ~attacker ~safety_period:12
          ~source:topo.Topology.source
      with
      | Verifier.Captured { trace; periods } -> Some (trace, periods)
      | Verifier.Safe -> find_captured (seed + 1)
    end
  in
  match find_captured 0 with
  | None -> Alcotest.fail "no capturing seed found on 7x7"
  | Some (trace, periods) ->
    Alcotest.(check int) "starts at sink" topo.Topology.sink (List.hd trace);
    Alcotest.(check int) "ends at source" topo.Topology.source
      (List.nth trace (List.length trace - 1));
    Alcotest.(check bool) "every step is an edge" true
      (let rec ok = function
         | a :: (b :: _ as rest) -> Graph.mem_edge g a b && ok rest
         | _ -> true
       in
       ok trace);
    Alcotest.(check bool) "periods within bound" true (periods <= 12)

let test_attacker_traces_deterministic () =
  (* The canonical attacker is deterministic: exactly one maximal trace, and
     it is the verifier's capture walk. *)
  let attacker = Attacker.canonical ~start:3 in
  match
    Verifier.attacker_traces line4 line4_sched ~attacker ~safety_period:10
      ~max_traces:100
  with
  | [ trace ] -> Alcotest.(check (list int)) "the descent" [ 3; 2; 1; 0 ] trace
  | traces -> Alcotest.failf "expected one trace, got %d" (List.length traces)

let test_attacker_traces_branching () =
  (* A nondeterministic D that proposes both of the two lowest heard
     locations branches the enumeration. *)
  let both ~heard ~history:_ ~current =
    List.filter_map
      (fun h ->
        if h.Attacker.location = current then None else Some h.Attacker.location)
      heard
  in
  (* Star around 1: the attacker at 3 (sink side) first reaches 1, then can
     go to 0 or 2. *)
  let g = Graph.create ~n:4 [ (1, 0); (1, 2); (1, 3) ] in
  let s = Schedule.of_alist ~n:4 ~sink:3 [ (0, 4); (1, 6); (2, 2) ] in
  let attacker = Attacker.make ~decide:both ~decide_name:"both" ~r:2 ~h:0 ~m:1 ~start:3 () in
  let traces =
    Verifier.attacker_traces g s ~attacker ~safety_period:10 ~max_traces:100
  in
  Alcotest.(check bool) "several traces" true (List.length traces >= 2);
  List.iter
    (fun trace ->
      Alcotest.(check int) "all start at the sink" 3 (List.hd trace))
    traces

let test_attacker_traces_agree_with_verify () =
  (* On small grids, enumeration and the memoized verifier must agree on
     whether a capturing trace exists. *)
  for seed = 0 to 14 do
    let topo = Topology.grid 5 in
    let g = topo.Topology.graph in
    let r = Das_build.build ~rng:(Rng.create seed) g ~sink:topo.Topology.sink in
    let attacker = Attacker.canonical ~start:topo.Topology.sink in
    let safety_period = Safety.safety_periods ~delta_ss:4 () in
    let traces =
      Verifier.attacker_traces g r.Das_build.schedule ~attacker ~safety_period
        ~max_traces:1000
    in
    let enumerated_capture =
      List.exists (fun t -> List.mem topo.Topology.source t) traces
    in
    let verdict =
      Verifier.verify g r.Das_build.schedule ~attacker ~safety_period
        ~source:topo.Topology.source
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d agreement" seed)
      (verdict <> Verifier.Safe) enumerated_capture
  done

let test_attacker_traces_truncation () =
  let attacker = Attacker.canonical ~start:3 in
  Alcotest.(check int) "max respected" 1
    (List.length
       (Verifier.attacker_traces line4 line4_sched ~attacker ~safety_period:10
          ~max_traces:1))

let test_verify_with_stats () =
  let attacker = Attacker.canonical ~start:3 in
  let verdict, states =
    Verifier.verify_with_stats line4 line4_sched ~attacker ~safety_period:10
      ~source:0
  in
  Alcotest.(check bool) "same verdict as verify" true
    (verdict = Verifier.verify line4 line4_sched ~attacker ~safety_period:10 ~source:0);
  (* Deterministic attacker on a 4-line: a handful of states. *)
  Alcotest.(check bool) "small state count" true (states >= 1 && states <= 10);
  (* A branching attacker explores more. *)
  let both ~heard ~history:_ ~current =
    List.filter_map
      (fun h ->
        if h.Attacker.location = current then None else Some h.Attacker.location)
      heard
  in
  let wide = Attacker.make ~decide:both ~decide_name:"both" ~r:2 ~h:2 ~m:2 ~start:3 () in
  let _, wide_states =
    Verifier.verify_with_stats line4 line4_sched ~attacker:wide ~safety_period:10
      ~source:0
  in
  Alcotest.(check bool)
    (Printf.sprintf "branching explores more (%d vs %d)" wide_states states)
    true (wide_states >= states)

let test_capture_time_minimal () =
  let attacker = Attacker.canonical ~start:3 in
  match Verifier.capture_time line4 line4_sched ~attacker ~source:0 ~limit:50 with
  | Some (3, [ 3; 2; 1; 0 ]) -> ()
  | Some (p, tr) ->
    Alcotest.failf "expected 3 periods, got %d via %s" p
      (String.concat "," (List.map string_of_int tr))
  | None -> Alcotest.fail "expected capture"

let test_capture_time_none_when_trapped () =
  let s = Schedule.of_alist ~n:4 ~sink:3 [ (0, 5); (1, 6); (2, 1) ] in
  let attacker = Attacker.canonical ~start:3 in
  Alcotest.(check bool) "no capture ever" true
    (Verifier.capture_time line4 s ~attacker ~source:0 ~limit:100 = None)

let test_verifier_invalid_args () =
  let attacker = Attacker.canonical ~start:3 in
  Alcotest.check_raises "negative delta"
    (Invalid_argument "Verifier: negative safety period") (fun () ->
      ignore (Verifier.verify line4 line4_sched ~attacker ~safety_period:(-1) ~source:0));
  Alcotest.check_raises "bad source"
    (Invalid_argument "Verifier: source out of range") (fun () ->
      ignore (Verifier.verify line4 line4_sched ~attacker ~safety_period:3 ~source:9))

(* Agreement between the declarative verifier and a direct simulation of the
   canonical attacker on the slot field. *)
let simulate_descent g sched ~start ~source ~safety_period =
  let rec go loc period =
    if period > safety_period then false
    else if loc = source then true
    else begin
      match Attacker.heard_by g sched ~at:loc ~r:1 with
      | { Attacker.location; _ } :: _ when location <> loc ->
        go location (period + 1)
      | _ -> false
    end
  in
  go start 0

let prop_verifier_matches_descent =
  QCheck.Test.make ~count:80
    ~name:"verifier verdict = operational descent (canonical attacker)"
    QCheck.(pair (int_range 5 11) (int_bound 10_000))
    (fun (dim, seed) ->
      let topo = Topology.grid dim in
      let g = topo.Topology.graph in
      let r = Das_build.build ~rng:(Rng.create seed) g ~sink:topo.Topology.sink in
      let delta_ss = Topology.source_sink_distance topo in
      let sp = Safety.safety_periods ~delta_ss () in
      let attacker = Attacker.canonical ~start:topo.Topology.sink in
      let verdict =
        Verifier.verify g r.Das_build.schedule ~attacker ~safety_period:sp
          ~source:topo.Topology.source
      in
      let captured = verdict <> Verifier.Safe in
      captured
      = simulate_descent g r.Das_build.schedule ~start:topo.Topology.sink
          ~source:topo.Topology.source ~safety_period:sp)

(* The packed-state fast path must be observationally identical to the
   reference DFS: same verdict (including the counterexample) and same
   explored-state count, for any attacker budget — h up to 8 exercises both
   the single-int and the int-pair key encodings. *)
let prop_packed_verifier_matches_reference =
  QCheck.Test.make ~count:60 ~name:"packed verifier = reference verifier"
    QCheck.(
      pair
        (pair (int_range 3 8) (int_bound 10_000))
        (pair
           (pair (int_range 1 3) (int_bound 8))
           (pair (int_range 1 3) (int_bound 2))))
    (fun ((dim, seed), ((r, h), (m, decide_ix))) ->
      let topo = Topology.grid dim in
      let g = topo.Topology.graph in
      let built = Das_build.build ~rng:(Rng.create seed) g ~sink:topo.Topology.sink in
      let decide, decide_name =
        match decide_ix with
        | 0 -> (Attacker.lowest_slot, "lowest")
        | 1 -> (Attacker.lowest_slot_avoiding_history, "avoiding")
        | _ -> (Attacker.second_lowest, "second")
      in
      let attacker =
        Attacker.make ~decide ~decide_name ~r ~h ~m ~start:topo.Topology.sink ()
      in
      let delta_ss = Topology.source_sink_distance topo in
      let safety_period = Safety.safety_periods ~delta_ss () in
      let fast =
        Verifier.verify_with_stats g built.Das_build.schedule ~attacker
          ~safety_period ~source:topo.Topology.source
      in
      let reference =
        Verifier.verify_with_stats_reference g built.Das_build.schedule ~attacker
          ~safety_period ~source:topo.Topology.source
      in
      fast = reference)

(* Same differential obligation for the minimum-capture-time search: the
   packed best-period map must reproduce the reference's result exactly —
   the minimum period and the witnessing trace. *)
let prop_packed_capture_time_matches_reference =
  QCheck.Test.make ~count:40 ~name:"packed capture time = reference"
    QCheck.(
      pair
        (pair (int_range 3 7) (int_bound 10_000))
        (pair
           (pair (int_range 1 3) (int_bound 8))
           (pair (int_range 1 3) (int_bound 2))))
    (fun ((dim, seed), ((r, h), (m, decide_ix))) ->
      let topo = Topology.grid dim in
      let g = topo.Topology.graph in
      let built = Das_build.build ~rng:(Rng.create seed) g ~sink:topo.Topology.sink in
      let decide, decide_name =
        match decide_ix with
        | 0 -> (Attacker.lowest_slot, "lowest")
        | 1 -> (Attacker.lowest_slot_avoiding_history, "avoiding")
        | _ -> (Attacker.second_lowest, "second")
      in
      let attacker =
        Attacker.make ~decide ~decide_name ~r ~h ~m ~start:topo.Topology.sink ()
      in
      let limit = 3 * Topology.source_sink_distance topo in
      Verifier.capture_time g built.Das_build.schedule ~attacker
        ~source:topo.Topology.source ~limit
      = Verifier.capture_time_reference g built.Das_build.schedule ~attacker
          ~source:topo.Topology.source ~limit)

(* ------------------------------------------------------------------ *)
(* Slp_refine                                                         *)
(* ------------------------------------------------------------------ *)

let refine_on_grid ?rng ?gap dim ~sd =
  let topo = Topology.grid dim in
  let g = topo.Topology.graph in
  let das =
    match rng with
    | None -> Das_build.build g ~sink:topo.Topology.sink
    | Some r -> Das_build.build ~rng:r g ~sink:topo.Topology.sink
  in
  let delta_ss = Topology.source_sink_distance topo in
  (topo, g, das, Slp_refine.refine ?rng ?gap g ~das ~search_distance:sd
                   ~change_length:(max 1 (delta_ss - sd)))

let test_refine_structure () =
  let _topo, g, das, result = refine_on_grid ~rng:(Rng.create 1) 11 ~sd:3 in
  match result with
  | None -> Alcotest.fail "refine failed on 11x11"
  | Some r ->
    Alcotest.(check int) "search path starts at sink" 60
      (List.hd r.Slp_refine.search_path);
    Alcotest.(check bool) "search path length >= SD+1" true
      (List.length r.Slp_refine.search_path >= 4);
    Alcotest.(check bool) "search path is a walk" true
      (let rec ok = function
         | a :: (b :: _ as rest) -> Graph.mem_edge g a b && ok rest
         | _ -> true
       in
       ok r.Slp_refine.search_path);
    Alcotest.(check bool) "change path non-empty" true
      (r.Slp_refine.change_path <> []);
    Alcotest.(check bool) "input not mutated" true
      (Schedule.slot das.Das_build.schedule (List.hd r.Slp_refine.change_path)
      <> Schedule.slot r.Slp_refine.refined (List.hd r.Slp_refine.change_path))

let test_refine_preserves_weak_das () =
  for seed = 0 to 19 do
    let rng = Rng.create seed in
    let _topo, g, _das, result = refine_on_grid ~rng 9 ~sd:3 in
    match result with
    | None -> ()
    | Some r ->
      let violations = Das_check.check_weak g r.Slp_refine.refined in
      if violations <> [] then
        Alcotest.failf "seed %d: weak violations: %s" seed
          (String.concat "; " (List.map Das_check.violation_to_string violations))
  done

let test_refine_decoys_descend () =
  let _topo, _g, _das, result = refine_on_grid ~rng:(Rng.create 2) 11 ~sd:3 in
  match result with
  | None -> Alcotest.fail "refine failed"
  | Some r ->
    let slots =
      List.map (fun v -> Schedule.slot_exn r.Slp_refine.refined v) r.Slp_refine.change_path
    in
    let rec decreasing = function
      | a :: (b :: _ as rest) -> a > b && decreasing rest
      | _ -> true
    in
    Alcotest.(check bool) "chain slots strictly decrease" true (decreasing slots)

let test_refine_first_decoy_lowest_around_start () =
  let _topo, g, _das, result = refine_on_grid ~rng:(Rng.create 3) 11 ~sd:3 in
  match result with
  | None -> Alcotest.fail "refine failed"
  | Some r ->
    let start = r.Slp_refine.start_node in
    let first = List.hd r.Slp_refine.change_path in
    let first_slot = Schedule.slot_exn r.Slp_refine.refined first in
    List.iter
      (fun m ->
        if m <> first && m <> Schedule.sink r.Slp_refine.refined then begin
          match Schedule.slot r.Slp_refine.refined m with
          | Some s ->
            Alcotest.(check bool)
              (Printf.sprintf "decoy below neighbour %d of start" m)
              true (first_slot < s)
          | None -> ()
        end)
      (start :: Graph.neighbour_list g start)

let test_refine_lures_attacker_into_change_path () =
  (* Statistically the refined field must divert the attacker from the
     source more often than the protectionless one; count over seeds. *)
  let topo = Topology.grid 11 in
  let g = topo.Topology.graph in
  let delta_ss = Topology.source_sink_distance topo in
  let sp = Safety.safety_periods ~delta_ss () in
  let attacker = Attacker.canonical ~start:topo.Topology.sink in
  let captures schedule_of =
    let count = ref 0 in
    for seed = 0 to 99 do
      let rng = Rng.create seed in
      let das = Das_build.build ~rng g ~sink:topo.Topology.sink in
      let sched = schedule_of rng das in
      match
        Verifier.verify g sched ~attacker ~safety_period:sp
          ~source:topo.Topology.source
      with
      | Verifier.Captured _ -> incr count
      | Verifier.Safe -> ()
    done;
    !count
  in
  let protectionless = captures (fun _ das -> das.Das_build.schedule) in
  let refined =
    captures (fun rng das ->
        match
          Slp_refine.refine ~rng ~gap:2 g ~das ~search_distance:3
            ~change_length:(delta_ss - 3)
        with
        | Some r -> r.Slp_refine.refined
        | None -> das.Das_build.schedule)
  in
  Alcotest.(check bool)
    (Printf.sprintf "refined %d < protectionless %d captures" refined protectionless)
    true
    (refined * 2 <= protectionless)

let prop_refine_weak_das =
  QCheck.Test.make ~count:60 ~name:"refinement preserves weak DAS (all gaps)"
    QCheck.(triple (int_range 5 10) (int_bound 10_000) (int_range 1 3))
    (fun (dim, seed, gap) ->
      let topo = Topology.grid dim in
      let g = topo.Topology.graph in
      let rng = Rng.create seed in
      let das = Das_build.build ~rng g ~sink:topo.Topology.sink in
      let delta_ss = Topology.source_sink_distance topo in
      match
        Slp_refine.refine ~rng ~gap g ~das ~search_distance:3
          ~change_length:(max 1 (delta_ss - 3))
      with
      | None -> true
      | Some r -> Das_check.check_weak g r.Slp_refine.refined = [])

let prop_traces_are_walks =
  QCheck.Test.make ~count:60 ~name:"enumerated traces are graph walks"
    QCheck.(pair (int_range 4 8) (int_bound 10_000))
    (fun (dim, seed) ->
      let topo = Topology.grid dim in
      let g = topo.Topology.graph in
      let r = Das_build.build ~rng:(Rng.create seed) g ~sink:topo.Topology.sink in
      let attacker = Attacker.canonical ~start:topo.Topology.sink in
      let traces =
        Verifier.attacker_traces g r.Das_build.schedule ~attacker
          ~safety_period:20 ~max_traces:50
      in
      List.for_all
        (fun trace ->
          List.hd trace = topo.Topology.sink
          &&
          let rec walk = function
            | a :: (b :: _ as rest) -> Graph.mem_edge g a b && walk rest
            | _ -> true
          in
          walk trace)
        traces)

let test_refine_rejects_bad_args () =
  let topo = Topology.grid 5 in
  let das = Das_build.build topo.Topology.graph ~sink:topo.Topology.sink in
  Alcotest.check_raises "sd" (Invalid_argument "Slp_refine: search_distance < 1")
    (fun () ->
      ignore
        (Slp_refine.refine topo.Topology.graph ~das ~search_distance:0
           ~change_length:1))

let test_refine_none_on_line () =
  (* On a path graph no node has an alternate potential parent. *)
  let topo = Topology.line 8 in
  let das = Das_build.build topo.Topology.graph ~sink:topo.Topology.sink in
  Alcotest.(check bool) "no start node" true
    (Slp_refine.refine topo.Topology.graph ~das ~search_distance:2 ~change_length:2
    = None)

(* ------------------------------------------------------------------ *)
(* Serialization                                                      *)
(* ------------------------------------------------------------------ *)

let test_schedule_roundtrip () =
  let topo = Topology.grid 7 in
  let r = Das_build.build ~rng:(Rng.create 3) topo.Topology.graph ~sink:topo.Topology.sink in
  let text = Schedule.to_string r.Das_build.schedule in
  match Schedule.of_string text with
  | Ok parsed ->
    Alcotest.(check bool) "roundtrip" true (Schedule.equal r.Das_build.schedule parsed)
  | Error reason -> Alcotest.failf "parse failed: %s" reason

let test_schedule_roundtrip_partial () =
  let s = Schedule.of_alist ~n:5 ~sink:4 [ (0, 10); (2, -3) ] in
  match Schedule.of_string (Schedule.to_string s) with
  | Ok parsed -> Alcotest.(check bool) "partial + negative slots" true (Schedule.equal s parsed)
  | Error reason -> Alcotest.failf "parse failed: %s" reason

let test_schedule_parse_errors () =
  let check_error text =
    match Schedule.of_string text with
    | Ok _ -> Alcotest.failf "expected an error for %S" text
    | Error _ -> ()
  in
  check_error "";
  check_error "not-a-schedule\nn 2\nsink 1\n";
  check_error "slp-das-schedule v1\nn 2\nsink 5\n";
  check_error "slp-das-schedule v1\nn 2\nsink 1\n0 one\n";
  check_error
    (Printf.sprintf "slp-das-schedule v1\nn 2\nsink 1\n0 %d\n" Schedule.none);
  check_error "slp-das-schedule v1\nn 2\nsink 1\n1 3\n" (* sink assigned *);
  check_error "slp-das-schedule v1\nn 2\nsink 1\n0 3\n0 4\n" (* duplicate *)

let prop_schedule_roundtrip =
  QCheck.Test.make ~count:200 ~name:"serialization round-trips"
    QCheck.(pair (int_range 2 30) (list (pair small_nat (int_range (-50) 150))))
    (fun (n, assocs) ->
      let sink = 0 in
      let s = Schedule.create ~n ~sink in
      List.iter
        (fun (v, slot) ->
          let v = v mod n in
          if v <> sink then Schedule.assign s v slot)
        assocs;
      match Schedule.of_string (Schedule.to_string s) with
      | Ok parsed -> Schedule.equal s parsed
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Coverage                                                           *)
(* ------------------------------------------------------------------ *)

let test_coverage_line_gradient () =
  (* On the descending line every node lies on the attacker's walk, so all
     are vulnerable. *)
  let coverage =
    Slpdas_core.Coverage.analyse line4 line4_sched
      ~attacker:(Attacker.canonical ~start:3)
  in
  Alcotest.(check int) "total" 3 coverage.Slpdas_core.Coverage.total_sources;
  Alcotest.(check int) "none protected" 0
    coverage.Slpdas_core.Coverage.protected_sources;
  Alcotest.(check (list int)) "all vulnerable" [ 0; 1; 2 ]
    (Slpdas_core.Coverage.vulnerable coverage);
  Alcotest.(check (option int)) "fastest capture is one hop" (Some 1)
    coverage.Slpdas_core.Coverage.min_capture_periods

let test_coverage_trap_protects_everyone () =
  let s = Schedule.of_alist ~n:4 ~sink:3 [ (0, 5); (1, 6); (2, 1) ] in
  let coverage =
    Slpdas_core.Coverage.analyse line4 s ~attacker:(Attacker.canonical ~start:3)
  in
  (* The attacker moves to 2 and is stuck: only node 2 itself is caught. *)
  Alcotest.(check (list int)) "only the trap node" [ 2 ]
    (Slpdas_core.Coverage.vulnerable coverage);
  Alcotest.(check (float 1e-9)) "fraction" (2.0 /. 3.0)
    (Slpdas_core.Coverage.protected_fraction coverage)

let test_coverage_grid_fraction () =
  (* On a grid, exactly the attacker's descent path is vulnerable: a thin
     set, so the protected fraction is high. *)
  let topo = Topology.grid 9 in
  let r = Das_build.build ~rng:(Rng.create 11) topo.Topology.graph ~sink:topo.Topology.sink in
  let coverage =
    Slpdas_core.Coverage.analyse topo.Topology.graph r.Das_build.schedule
      ~attacker:(Attacker.canonical ~start:topo.Topology.sink)
  in
  Alcotest.(check int) "all non-sink nodes checked" 80
    coverage.Slpdas_core.Coverage.total_sources;
  let fraction = Slpdas_core.Coverage.protected_fraction coverage in
  Alcotest.(check bool)
    (Printf.sprintf "thin vulnerable set (%.2f protected)" fraction)
    true
    (fraction > 0.8 && fraction < 1.0);
  (* The vulnerable set is exactly a connected walk from a sink neighbour. *)
  let vulnerable = Slpdas_core.Coverage.vulnerable coverage in
  Alcotest.(check bool) "at most one per hop ring" true
    (List.length vulnerable <= 16)

let test_coverage_domain_invariance () =
  let topo = Topology.grid 7 in
  let r =
    Das_build.build ~rng:(Rng.create 5) topo.Topology.graph
      ~sink:topo.Topology.sink
  in
  let analyse domains =
    Slpdas_core.Coverage.analyse ~domains topo.Topology.graph
      r.Das_build.schedule
      ~attacker:(Attacker.canonical ~start:topo.Topology.sink)
  in
  let seq = analyse 1 and par = analyse 3 in
  Alcotest.(check bool) "identical analysis for 1 vs 3 domains" true (seq = par)

let test_coverage_skips_unreachable () =
  let g = Graph.create ~n:4 [ (0, 1) ] in
  let s = Schedule.of_alist ~n:4 ~sink:1 [ (0, 5) ] in
  let coverage =
    Slpdas_core.Coverage.analyse g s ~attacker:(Attacker.canonical ~start:1)
  in
  (* Nodes 2 and 3 are unreachable: only node 0 is a candidate source. *)
  Alcotest.(check int) "one candidate" 1 coverage.Slpdas_core.Coverage.total_sources

(* ------------------------------------------------------------------ *)
(* Additional decision functions                                      *)
(* ------------------------------------------------------------------ *)

let test_second_lowest_decision () =
  let heard =
    [ { Attacker.location = 7; slot = 3 }; { Attacker.location = 2; slot = 9 } ]
  in
  Alcotest.(check (list int)) "second heard" [ 2 ]
    (Attacker.second_lowest ~heard ~history:[] ~current:1);
  Alcotest.(check (list int)) "single message: stay" []
    (Attacker.second_lowest ~heard:[ List.hd heard ] ~history:[] ~current:1)

let test_epsilon_greedy_decision () =
  let heard =
    [ { Attacker.location = 7; slot = 3 }; { Attacker.location = 2; slot = 9 } ]
  in
  let greedy = Attacker.epsilon_greedy (Rng.create 1) ~epsilon:0.0 in
  Alcotest.(check (list int)) "epsilon 0 = lowest slot" [ 7 ]
    (greedy ~heard ~history:[] ~current:1);
  let explore = Attacker.epsilon_greedy (Rng.create 1) ~epsilon:1.0 in
  let choices =
    List.init 50 (fun _ -> explore ~heard ~history:[] ~current:1)
    |> List.concat |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "epsilon 1 explores both" [ 2; 7 ] choices;
  Alcotest.check_raises "epsilon validated"
    (Invalid_argument "Attacker.epsilon_greedy: epsilon outside [0, 1]")
    (fun () ->
      ignore (Attacker.epsilon_greedy (Rng.create 1) ~epsilon:1.5 : Attacker.decide))

(* ------------------------------------------------------------------ *)
(* Safety                                                             *)
(* ------------------------------------------------------------------ *)

let test_safety_arithmetic () =
  Alcotest.(check int) "capture periods" 11 (Safety.capture_periods ~delta_ss:10);
  Alcotest.(check int) "safety periods 1.5x" 17
    (Safety.safety_periods ~delta_ss:10 ());
  Alcotest.(check (float 1e-9)) "safety seconds" 82.5
    (Safety.safety_seconds ~period_length:5.0 ~delta_ss:10 ());
  Alcotest.(check (float 1e-9)) "upper bound" 2662.0
    (Safety.upper_time_bound ~nodes:121 ~source_period:5.5)

let test_safety_factor_validated () =
  Alcotest.check_raises "factor too big"
    (Invalid_argument "Safety: factor must satisfy 1 < Cs < 2 (Eq. 1)")
    (fun () -> ignore (Safety.safety_periods ~factor:2.5 ~delta_ss:5 ()))

(* ------------------------------------------------------------------ *)
(* Das_build fixpoint vs the pass-based oracle                        *)
(* ------------------------------------------------------------------ *)

module Oracle = Das_fixpoint_oracle

let check_same_build label (a : Das_build.result) (b : Oracle.result) =
  Alcotest.(check bool) (label ^ ": schedule") true
    (Schedule.equal a.Das_build.schedule b.Oracle.schedule);
  Alcotest.(check (array (option int))) (label ^ ": parent")
    b.Oracle.parent a.Das_build.parent;
  Alcotest.(check (array int)) (label ^ ": hop") b.Oracle.hop a.Das_build.hop

let check_build_matches_oracle label ?seed g ~sink =
  let rng () = Option.map Rng.create seed in
  check_same_build label
    (Das_build.build ?rng:(rng ()) g ~sink)
    (Oracle.build ?rng:(rng ()) g ~sink)

let test_oracle_build_grids () =
  for dim = 5 to 41 do
    let topo = Topology.grid dim in
    List.iter
      (fun seed ->
        check_build_matches_oracle
          (Printf.sprintf "grid %d seed %s" dim
             (Option.fold ~none:"-" ~some:string_of_int seed))
          ?seed topo.Topology.graph ~sink:topo.Topology.sink)
      [ None; Some dim; Some (1000 + dim) ]
  done

let test_oracle_build_large_grid () =
  let topo = Topology.grid 101 in
  check_build_matches_oracle "grid 101 seed 1" ~seed:1 topo.Topology.graph
    ~sink:topo.Topology.sink

let test_oracle_build_unit_disk () =
  let built = ref 0 in
  for seed = 1 to 40 do
    match
      Topology.random_unit_disk (Rng.create seed) ~n:(20 + seed) ~side:40.0
        ~range:12.0 ~max_attempts:1
    with
    | None -> ()
    | Some topo ->
      incr built;
      List.iter
        (fun build_seed ->
          check_build_matches_oracle
            (Printf.sprintf "unit disk %d" seed)
            ?seed:build_seed topo.Topology.graph ~sink:topo.Topology.sink)
        [ None; Some seed ]
  done;
  Alcotest.(check bool) "some topologies drawn" true (!built > 10)

(* Both repairs on copies of one input; a [Failure] (fuel exhausted) must
   happen on both sides, with the schedules left in the same state. *)
let check_repair_matches_oracle label ~strong ~salt g ~schedule ~parent
    ~pinned =
  let run repair =
    let s = Schedule.copy schedule in
    let outcome =
      match repair ~strong ~salt g ~schedule:s ~parent ~pinned with
      | () -> "converged"
      | exception Failure msg -> msg
    in
    (outcome, s)
  in
  let outcome, repaired =
    run (fun ~strong ~salt -> Das_build.repair ~strong ~salt)
  in
  let oracle_outcome, oracle_repaired =
    run (fun ~strong ~salt -> Oracle.repair ~strong ~salt)
  in
  Alcotest.(check string) (label ^ ": outcome") oracle_outcome outcome;
  Alcotest.(check bool) (label ^ ": schedule") true
    (Schedule.equal oracle_repaired repaired)

(* Decoy-like damage: lower a few random slots below their surroundings and
   pin a random set of nodes, as refinement does with its change path. *)
let perturbed_repair_inputs ~dim ~seed =
  let topo = Topology.grid dim in
  let g = topo.Topology.graph in
  let rng = Rng.create seed in
  let das = Das_build.build ~rng g ~sink:topo.Topology.sink in
  let schedule = Schedule.copy das.Das_build.schedule in
  let n = Graph.n g in
  for _ = 1 to 1 + Rng.int rng dim do
    let v = Rng.int rng n in
    if v <> topo.Topology.sink then
      Schedule.assign schedule v (Schedule.slot_exn schedule v - Rng.int rng 30)
  done;
  let pinned = Array.init n (fun _ -> Rng.int rng 8 = 0) in
  (g, rng, das, schedule, fun v -> pinned.(v))

let test_oracle_repair_pinned () =
  for dim = 5 to 15 do
    for seed = 1 to 6 do
      let g, rng, das, schedule, pinned =
        perturbed_repair_inputs ~dim ~seed:((100 * dim) + seed)
      in
      List.iter
        (fun strong ->
          check_repair_matches_oracle
            (Printf.sprintf "grid %d seed %d strong %b" dim seed strong)
            ~strong ~salt:(Rng.int rng 1000) g ~schedule
            ~parent:das.Das_build.parent ~pinned)
        [ false; true ]
    done
  done

(* Parents that are not neighbours: only the reverse-parent index tells a
   node that its parent's slot moved. *)
let test_oracle_repair_foreign_parents () =
  for dim = 5 to 11 do
    for seed = 1 to 6 do
      let g, rng, das, schedule, pinned =
        perturbed_repair_inputs ~dim ~seed:((100 * dim) + seed)
      in
      let n = Graph.n g in
      let parent =
        Array.mapi
          (fun v p ->
            if p <> None && Rng.int rng 3 = 0 then begin
              let q = Rng.int rng n in
              if q = v then p else Some q
            end
            else p)
          das.Das_build.parent
      in
      List.iter
        (fun strong ->
          check_repair_matches_oracle
            (Printf.sprintf "grid %d seed %d strong %b foreign parents" dim seed
               strong)
            ~strong ~salt:0 g ~schedule ~parent ~pinned)
        [ false; true ]
    done
  done

(* Path 0-1-2-3-4-5, sink 0.  Node 5 has no forwarder and names node 2,
   three hops away, as its parent.  Node 2 loses its collision with node 1
   in the first pass's phase 2, after node 5 was visited, so only the
   reverse-parent index brings node 5 back in the second pass. *)
let test_oracle_repair_foreign_parent_line () =
  let g = Graph.create ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let schedule =
    Schedule.of_alist ~n:6 ~sink:0 [ (1, 50); (2, 50); (3, 10); (4, 20); (5, 49) ]
  in
  let parent = [| None; Some 0; None; Some 2; Some 3; Some 2 |] in
  let pinned _ = false in
  check_repair_matches_oracle "foreign parent line" ~strong:false ~salt:0 g
    ~schedule ~parent ~pinned;
  Das_build.repair g ~schedule ~parent ~pinned;
  Alcotest.(check (list (pair int int))) "node 5 below its new parent slot"
    [ (1, 50); (2, 49); (3, 10); (4, 20); (5, 48) ]
    (Schedule.to_alist schedule)

(* [Slp_refine.refine]'s last draw is its repair salt, [1 + Rng.int r
   0x3FFF_FFFF], which takes one 64-bit step.  Count the steps the seeded
   build and refinement took by finding the generator's next output in a
   replay, then redraw the salt from a replay stopped one step short. *)
let refine_salt ~seed ~after =
  let next = Rng.bits64 (Rng.copy after) in
  let replay = Rng.create seed in
  let steps = ref 1 in
  while not (Int64.equal (Rng.bits64 replay) next) do
    if !steps > 10_000_000 then Alcotest.fail "refine rng not found in replay";
    incr steps
  done;
  let r = Rng.create seed in
  for _ = 1 to !steps - 2 do
    ignore (Rng.bits64 r)
  done;
  1 + Rng.int r 0x3FFF_FFFF

let test_oracle_refine () =
  let refined = ref 0 in
  for dim = 7 to 21 do
    let topo = Topology.grid dim in
    let g = topo.Topology.graph and sink = topo.Topology.sink in
    List.iter
      (fun seed ->
        let rng = Option.map Rng.create seed in
        let das = Das_build.build ?rng g ~sink in
        match
          Slp_refine.refine ?rng g ~das ~search_distance:(1 + (dim mod 3))
            ~change_length:(dim / 2)
        with
        | None -> ()
        | Some r ->
          incr refined;
          let salt =
            match (seed, rng) with
            | Some seed, Some after -> refine_salt ~seed ~after
            | _ -> 0
          in
          (* Refinement's input to repair: the built schedule with the change
             path's slots, which repair never moves. *)
          let pre = Schedule.copy das.Das_build.schedule in
          let on_path = Array.make (Graph.n g) false in
          List.iter
            (fun v ->
              on_path.(v) <- true;
              Schedule.assign pre v (Schedule.slot_exn r.Slp_refine.refined v))
            r.Slp_refine.change_path;
          let label =
            Printf.sprintf "refine grid %d seed %s" dim
              (Option.fold ~none:"-" ~some:string_of_int seed)
          in
          List.iter
            (fun (side, repair) ->
              let s = Schedule.copy pre in
              repair ~salt g ~schedule:s ~parent:das.Das_build.parent
                ~pinned:(fun v -> on_path.(v));
              Alcotest.(check bool) (label ^ " " ^ side) true
                (Schedule.equal r.Slp_refine.refined s))
            [
              ("= repair", fun ~salt -> Das_build.repair ~strong:false ~salt);
              ("= oracle", fun ~salt -> Oracle.repair ~strong:false ~salt);
            ])
      [ None; Some dim; Some (50 + dim); Some (90 + dim) ]
  done;
  Alcotest.(check bool) "most refinements found a start" true (!refined > 40)

let () =
  Alcotest.run "core"
    [
      ( "schedule",
        [
          Alcotest.test_case "basic" `Quick test_schedule_basic;
          Alcotest.test_case "sink unassignable" `Quick test_schedule_sink_unassignable;
          Alcotest.test_case "none rejected" `Quick test_schedule_none_rejected;
          Alcotest.test_case "digest pinned" `Quick test_schedule_digest_pinned;
          Alcotest.test_case "sender sets" `Quick test_schedule_sender_sets;
          Alcotest.test_case "duplicate rejected" `Quick test_schedule_of_alist_duplicate;
          Alcotest.test_case "copy isolated" `Quick test_schedule_copy_isolated;
          Alcotest.test_case "clear" `Quick test_schedule_clear;
        ] );
      ( "das-check",
        [
          Alcotest.test_case "valid line" `Quick test_check_valid_line;
          Alcotest.test_case "unassigned" `Quick test_check_unassigned;
          Alcotest.test_case "1-hop collision" `Quick test_check_collision;
          Alcotest.test_case "2-hop collision" `Quick test_check_two_hop_collision;
          Alcotest.test_case "strong vs weak condition 3" `Quick
            test_check_strong_vs_weak_condition3;
          Alcotest.test_case "weak non-tree forwarder" `Quick
            test_check_weak_accepts_non_tree_forwarder;
          Alcotest.test_case "sink is a forwarder" `Quick test_check_sink_neighbour_weak;
        ] );
      ( "das-build",
        [
          Alcotest.test_case "line" `Quick test_build_line;
          Alcotest.test_case "deterministic" `Quick test_build_deterministic;
          Alcotest.test_case "seeded reproducible" `Quick test_build_seeded_reproducible;
          Alcotest.test_case "disconnected" `Quick test_build_disconnected;
          Alcotest.test_case "delta respected" `Quick test_build_delta_respected;
          Alcotest.test_case "compact line" `Quick test_build_compact_line;
          Alcotest.test_case "compact provisions fewer slots" `Quick
            test_build_compact_provisions_fewer_slots;
          Alcotest.test_case "length of empty" `Quick test_schedule_length_empty;
          QCheck_alcotest.to_alcotest prop_build_compact_strong;
          QCheck_alcotest.to_alcotest prop_build_strong_on_grids;
          QCheck_alcotest.to_alcotest prop_build_strong_on_unit_disk;
          QCheck_alcotest.to_alcotest prop_build_parents_are_shortest_path;
        ] );
      ( "das-oracle",
        [
          Alcotest.test_case "build, grids 5-41" `Quick test_oracle_build_grids;
          Alcotest.test_case "build, seeded 101x101" `Quick
            test_oracle_build_large_grid;
          Alcotest.test_case "build, unit disks" `Quick test_oracle_build_unit_disk;
          Alcotest.test_case "repair, pinned sets" `Quick test_oracle_repair_pinned;
          Alcotest.test_case "repair, foreign parents" `Quick
            test_oracle_repair_foreign_parents;
          Alcotest.test_case "repair, foreign parent on a line" `Quick
            test_oracle_repair_foreign_parent_line;
          Alcotest.test_case "refine outputs" `Quick test_oracle_refine;
        ] );
      ( "attacker",
        [
          Alcotest.test_case "params validated" `Quick test_attacker_params_validation;
          Alcotest.test_case "heard_by slot order" `Quick test_heard_by_orders_by_slot;
          Alcotest.test_case "heard_by self" `Quick test_heard_by_includes_self;
          Alcotest.test_case "lowest-slot D" `Quick test_lowest_slot_decision;
          Alcotest.test_case "history-avoiding D" `Quick test_history_avoiding_decision;
          Alcotest.test_case "state machine" `Quick test_attacker_state_machine;
          Alcotest.test_case "R bounds buffer" `Quick test_attacker_r_limits_buffer;
          Alcotest.test_case "stay consumes move" `Quick test_attacker_stay_consumes_move;
          Alcotest.test_case "history tracked" `Quick test_attacker_history_tracked;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "captures gradient" `Quick test_verifier_captures_gradient;
          Alcotest.test_case "safety boundary" `Quick test_verifier_safety_period_boundary;
          Alcotest.test_case "trap is safe" `Quick test_verifier_trap_is_safe;
          Alcotest.test_case "M budget" `Quick test_verifier_m_budget_blocks_ascent;
          Alcotest.test_case "R widens choice" `Quick test_verifier_r2_widens_choice;
          Alcotest.test_case "counterexample is a walk" `Quick
            test_verifier_counterexample_is_walk;
          Alcotest.test_case "traces: deterministic" `Quick
            test_attacker_traces_deterministic;
          Alcotest.test_case "traces: branching" `Quick test_attacker_traces_branching;
          Alcotest.test_case "traces agree with verify" `Quick
            test_attacker_traces_agree_with_verify;
          Alcotest.test_case "traces: truncation" `Quick test_attacker_traces_truncation;
          QCheck_alcotest.to_alcotest prop_traces_are_walks;
          Alcotest.test_case "verify_with_stats" `Quick test_verify_with_stats;
          Alcotest.test_case "capture time minimal" `Quick test_capture_time_minimal;
          Alcotest.test_case "capture time none" `Quick test_capture_time_none_when_trapped;
          Alcotest.test_case "argument validation" `Quick test_verifier_invalid_args;
          QCheck_alcotest.to_alcotest prop_verifier_matches_descent;
          QCheck_alcotest.to_alcotest prop_packed_verifier_matches_reference;
          QCheck_alcotest.to_alcotest prop_packed_capture_time_matches_reference;
        ] );
      ( "slp-refine",
        [
          Alcotest.test_case "structure" `Quick test_refine_structure;
          Alcotest.test_case "weak DAS preserved" `Quick test_refine_preserves_weak_das;
          Alcotest.test_case "decoys descend" `Quick test_refine_decoys_descend;
          Alcotest.test_case "first decoy lowest" `Quick
            test_refine_first_decoy_lowest_around_start;
          Alcotest.test_case "lure halves captures" `Slow
            test_refine_lures_attacker_into_change_path;
          QCheck_alcotest.to_alcotest prop_refine_weak_das;
          Alcotest.test_case "bad args" `Quick test_refine_rejects_bad_args;
          Alcotest.test_case "no start on a line" `Quick test_refine_none_on_line;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "roundtrip" `Quick test_schedule_roundtrip;
          Alcotest.test_case "partial + negative" `Quick test_schedule_roundtrip_partial;
          Alcotest.test_case "parse errors" `Quick test_schedule_parse_errors;
          QCheck_alcotest.to_alcotest prop_schedule_roundtrip;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "line gradient" `Quick test_coverage_line_gradient;
          Alcotest.test_case "trap protects" `Quick test_coverage_trap_protects_everyone;
          Alcotest.test_case "grid fraction" `Quick test_coverage_grid_fraction;
          Alcotest.test_case "domain invariance" `Quick
            test_coverage_domain_invariance;
          Alcotest.test_case "skips unreachable" `Quick test_coverage_skips_unreachable;
        ] );
      ( "decisions",
        [
          Alcotest.test_case "second lowest" `Quick test_second_lowest_decision;
          Alcotest.test_case "epsilon greedy" `Quick test_epsilon_greedy_decision;
        ] );
      ( "safety",
        [
          Alcotest.test_case "arithmetic" `Quick test_safety_arithmetic;
          Alcotest.test_case "factor validated" `Quick test_safety_factor_validated;
        ] );
    ]
