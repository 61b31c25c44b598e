(* Tests for the guarded-command runtime (Slpdas_gcn). *)

module Gcn = Slpdas_gcn

let t_timer = Gcn.Timer.intern "t"

let x_timer = Gcn.Timer.intern "x"

let go_timer = Gcn.Timer.intern "go"

(* A small counter program used throughout:
   - "tick" on Timeout "t": increments and re-arms;
   - "recv" on Receive: adds the payload, broadcasts the running total;
   - spontaneous "sat": once the counter reaches 10, emits a broadcast and
     latches (guard falsifies itself). *)
type counter = { count : int; latched : bool }

let counter_program =
  let init ~self:_ =
    ( { count = 0; latched = false },
      [ Gcn.Set_timer { timer = t_timer; after = 1.0 } ] )
  in
  let tick =
    {
      Gcn.name = "tick";
      handler =
        (fun ~self:_ s trigger ->
          match trigger with
          | Gcn.Timeout t when Gcn.Timer.equal t t_timer ->
            Some
              ( { s with count = s.count + 1 },
                [ Gcn.Set_timer { timer = t_timer; after = 1.0 } ] )
          | _ -> None);
    }
  in
  let recv =
    {
      Gcn.name = "recv";
      handler =
        (fun ~self:_ s trigger ->
          match trigger with
          | Gcn.Receive { sender = _; msg } ->
            Some ({ s with count = s.count + msg }, [ Gcn.Broadcast (s.count + msg) ])
          | _ -> None);
    }
  in
  let sat =
    {
      Gcn.sname = "sat";
      sguard = (fun s -> s.count >= 10 && not s.latched);
      scommand = (fun ~self:_ s -> ({ s with latched = true }, [ Gcn.Broadcast (-1) ]));
    }
  in
  { Gcn.init; actions = [ tick; recv ]; spontaneous = [ sat ] }

let test_init_effects () =
  let _, effects = Gcn.Instance.create counter_program ~self:3 ~now:0.0 in
  Alcotest.(check int) "one boot effect" 1 (List.length effects);
  match effects with
  | [ Gcn.Set_timer { timer; after } ] ->
    Alcotest.(check string) "timer name" "t" (Gcn.Timer.name timer);
    Alcotest.(check (float 1e-9)) "delay" 1.0 after
  | _ -> Alcotest.fail "expected a Set_timer effect"

let test_timeout_dispatch () =
  let inst, _ = Gcn.Instance.create counter_program ~self:0 ~now:0.0 in
  let effects = Gcn.Instance.deliver inst ~now:0.0 (Gcn.Timeout t_timer) in
  Alcotest.(check int) "count" 1 (Gcn.Instance.state inst).count;
  Alcotest.(check int) "rearm effect" 1 (List.length effects)

let test_unknown_timeout_ignored () =
  let inst, _ = Gcn.Instance.create counter_program ~self:0 ~now:0.0 in
  let effects =
    Gcn.Instance.deliver inst ~now:0.0 (Gcn.Timeout (Gcn.Timer.intern "nope"))
  in
  Alcotest.(check int) "no effects" 0 (List.length effects);
  Alcotest.(check int) "state unchanged" 0 (Gcn.Instance.state inst).count

let test_receive_dispatch () =
  let inst, _ = Gcn.Instance.create counter_program ~self:0 ~now:0.0 in
  let effects =
    Gcn.Instance.deliver inst ~now:0.0 (Gcn.Receive { sender = 9; msg = 5 })
  in
  Alcotest.(check int) "count" 5 (Gcn.Instance.state inst).count;
  match effects with
  | [ Gcn.Broadcast 5 ] -> ()
  | _ -> Alcotest.fail "expected Broadcast 5"

let test_spontaneous_fires_once () =
  let inst, _ = Gcn.Instance.create counter_program ~self:0 ~now:0.0 in
  let effects =
    Gcn.Instance.deliver inst ~now:0.0 (Gcn.Receive { sender = 1; msg = 12 })
  in
  (* recv effect then the latch broadcast from the spontaneous action *)
  Alcotest.(check int) "two effects" 2 (List.length effects);
  Alcotest.(check bool) "latched" true (Gcn.Instance.state inst).latched;
  (* Further triggers do not re-fire the latched spontaneous action. *)
  let effects2 = Gcn.Instance.deliver inst ~now:0.0 (Gcn.Timeout t_timer) in
  Alcotest.(check int) "only rearm" 1 (List.length effects2)

(* The event trace of §III-A, recorded by a wrapping program: init, then
   each fired action — spontaneous ones included — most recent first. *)
let test_fired_trace () =
  let trace = Fired_trace.create 1 in
  let inst, _ =
    Gcn.Instance.create (Fired_trace.program trace counter_program) ~self:0
      ~now:0.0
  in
  ignore (Gcn.Instance.deliver inst ~now:0.0 (Gcn.Timeout t_timer));
  ignore
    (Gcn.Instance.deliver inst ~now:0.0 (Gcn.Receive { sender = 1; msg = 12 }));
  Alcotest.(check (list string)) "event trace (most recent first)"
    [ "sat"; "recv"; "tick"; "init" ]
    (Fired_trace.get trace 0)

let test_first_enabled_action_wins () =
  (* Two actions both match the same timeout; declaration order decides. *)
  let mk name v =
    {
      Gcn.name;
      handler =
        (fun ~self:_ _s trigger ->
          match trigger with
          | Gcn.Timeout t when Gcn.Timer.equal t x_timer -> Some (v, [])
          | _ -> None);
    }
  in
  let program =
    { Gcn.init = (fun ~self:_ -> (0, [])); actions = [ mk "a" 1; mk "b" 2 ]; spontaneous = [] }
  in
  let inst, _ = Gcn.Instance.create program ~self:0 ~now:0.0 in
  ignore (Gcn.Instance.deliver inst ~now:0.0 (Gcn.Timeout x_timer));
  Alcotest.(check int) "first action fired" 1 (Gcn.Instance.state inst)

let test_guard_false_falls_through () =
  (* The first action's guard rejects even numbers; the second accepts. *)
  let odd_only =
    {
      Gcn.name = "odd";
      handler =
        (fun ~self:_ s trigger ->
          match trigger with
          | Gcn.Receive { msg; _ } when msg mod 2 = 1 -> Some (s + msg, [])
          | _ -> None);
    }
  in
  let any =
    {
      Gcn.name = "any";
      handler =
        (fun ~self:_ s trigger ->
          match trigger with
          | Gcn.Receive { msg; _ } -> Some (s + (100 * msg), [])
          | _ -> None);
    }
  in
  let program =
    { Gcn.init = (fun ~self:_ -> (0, [])); actions = [ odd_only; any ]; spontaneous = [] }
  in
  let inst, _ = Gcn.Instance.create program ~self:0 ~now:0.0 in
  ignore
    (Gcn.Instance.deliver inst ~now:0.0 (Gcn.Receive { sender = 0; msg = 3 }));
  Alcotest.(check int) "odd handled by first" 3 (Gcn.Instance.state inst);
  ignore
    (Gcn.Instance.deliver inst ~now:0.0 (Gcn.Receive { sender = 0; msg = 2 }));
  Alcotest.(check int) "even fell through" 203 (Gcn.Instance.state inst)

let test_round_end_trigger () =
  let program =
    {
      Gcn.init = (fun ~self:_ -> (0, []));
      actions =
        [
          {
            Gcn.name = "process";
            handler =
              (fun ~self:_ s trigger ->
                match trigger with Gcn.Round_end -> Some (s + 1, []) | _ -> None);
          };
        ];
      spontaneous = [];
    }
  in
  let inst, _ = Gcn.Instance.create program ~self:0 ~now:0.0 in
  ignore (Gcn.Instance.deliver inst ~now:0.0 Gcn.Round_end);
  ignore (Gcn.Instance.deliver inst ~now:0.0 Gcn.Round_end);
  Alcotest.(check int) "two rounds" 2 (Gcn.Instance.state inst)

let test_divergent_spontaneous_detected () =
  let runaway =
    {
      Gcn.sname = "runaway";
      sguard = (fun _ -> true);
      scommand = (fun ~self:_ s -> (s + 1, []));
    }
  in
  let program =
    { Gcn.init = (fun ~self:_ -> (0, [])); actions = []; spontaneous = [ runaway ] }
  in
  Alcotest.check_raises "divergence"
    (Gcn.Divergent "spontaneous actions did not settle") (fun () ->
      ignore (Gcn.Instance.create program ~self:0 ~now:0.0))

let test_spontaneous_chain () =
  (* Two spontaneous actions that enable each other once: a then b. *)
  let a =
    {
      Gcn.sname = "a";
      sguard = (fun (x, _) -> x = 1);
      scommand = (fun ~self:_ (_, y) -> ((2, y), [ Gcn.Broadcast "a" ]));
    }
  in
  let b =
    {
      Gcn.sname = "b";
      sguard = (fun (x, y) -> x = 2 && not y);
      scommand = (fun ~self:_ (x, _) -> ((x, true), [ Gcn.Broadcast "b" ]));
    }
  in
  let bump =
    {
      Gcn.name = "bump";
      handler =
        (fun ~self:_ (_, y) trigger ->
          match trigger with
          | Gcn.Timeout t when Gcn.Timer.equal t go_timer -> Some ((1, y), [])
          | _ -> None);
    }
  in
  let program =
    { Gcn.init = (fun ~self:_ -> ((0, false), [])); actions = [ bump ]; spontaneous = [ a; b ] }
  in
  let trace = Fired_trace.create 1 in
  let inst, _ =
    Gcn.Instance.create (Fired_trace.program trace program) ~self:0 ~now:0.0
  in
  let effects = Gcn.Instance.deliver inst ~now:0.0 (Gcn.Timeout go_timer) in
  Alcotest.(check int) "both spontaneous effects" 2 (List.length effects);
  Alcotest.(check (list string)) "order a then b"
    [ "b"; "a"; "bump"; "init" ]
    (Fired_trace.get trace 0)

let test_self_passed_to_handlers () =
  let program =
    {
      Gcn.init = (fun ~self -> (self, []));
      actions = [];
      spontaneous = [];
    }
  in
  let inst, _ = Gcn.Instance.create program ~self:17 ~now:0.0 in
  Alcotest.(check int) "self" 17 (Gcn.Instance.self inst);
  Alcotest.(check int) "state init saw self" 17 (Gcn.Instance.state inst)

(* ------------------------------------------------------------------ *)
(* Simulated clock                                                    *)
(* ------------------------------------------------------------------ *)

(* State: every [now ()] reading, newest first — one in init, one per
   handled trigger and one per spontaneous command. *)
let clock_program =
  {
    Gcn.init = (fun ~self:_ -> ([ Gcn.now () ], []));
    actions =
      [
        {
          Gcn.name = "read";
          handler = (fun ~self:_ s _ -> Some (Gcn.now () :: s, []));
        };
      ];
    spontaneous = [];
  }

let test_now_reads_host_time () =
  let inst, _ = Gcn.Instance.create clock_program ~self:0 ~now:2.5 in
  ignore (Gcn.Instance.deliver inst ~now:7.125 Gcn.Round_end);
  ignore (Gcn.Instance.deliver inst ~now:(0.1 +. 0.2) (Gcn.Timeout t_timer));
  Alcotest.(check (list (float 0.0))) "init and handlers read ~now"
    [ 0.1 +. 0.2; 7.125; 2.5 ] (Gcn.Instance.state inst)

let test_now_outside_a_call_raises () =
  let inst, _ = Gcn.Instance.create clock_program ~self:0 ~now:1.0 in
  ignore (Gcn.Instance.deliver inst ~now:3.0 Gcn.Round_end);
  Alcotest.check_raises "no call running"
    (Invalid_argument "Slpdas_gcn.now: no init or action is running")
    (fun () -> ignore (Gcn.now ()))

let test_now_nested_restores () =
  (* A handler that delivers to a second instance at another time sees its
     own clock again afterwards. *)
  let inner, _ = Gcn.Instance.create clock_program ~self:1 ~now:0.0 in
  let outer =
    {
      Gcn.init = (fun ~self:_ -> ([], []));
      actions =
        [
          {
            Gcn.name = "nest";
            handler =
              (fun ~self:_ s _ ->
                let before = Gcn.now () in
                ignore (Gcn.Instance.deliver inner ~now:9.0 Gcn.Round_end);
                Some (Gcn.now () :: before :: s, []));
          };
        ];
      spontaneous = [];
    }
  in
  let inst, _ = Gcn.Instance.create outer ~self:0 ~now:0.0 in
  ignore (Gcn.Instance.deliver inst ~now:4.0 Gcn.Round_end);
  Alcotest.(check (list (float 0.0))) "outer clock restored" [ 4.0; 4.0 ]
    (Gcn.Instance.state inst);
  Alcotest.(check (list (float 0.0))) "inner saw its own time" [ 9.0; 0.0 ]
    (Gcn.Instance.state inner)

let test_now_restored_after_raise () =
  let program =
    {
      Gcn.init = (fun ~self:_ -> ((), []));
      actions =
        [
          { Gcn.name = "boom"; handler = (fun ~self:_ _ _ -> failwith "boom") };
        ];
      spontaneous = [];
    }
  in
  let inst, _ = Gcn.Instance.create program ~self:0 ~now:0.0 in
  (try ignore (Gcn.Instance.deliver inst ~now:5.0 Gcn.Round_end)
   with Failure _ -> ());
  Alcotest.check_raises "clock cleared after the raise"
    (Invalid_argument "Slpdas_gcn.now: no init or action is running")
    (fun () -> ignore (Gcn.now ()))

(* ------------------------------------------------------------------ *)
(* Timer interning                                                    *)
(* ------------------------------------------------------------------ *)

let test_intern_idempotent () =
  let a = Gcn.Timer.intern "idem-test" in
  let b = Gcn.Timer.intern "idem-test" in
  Alcotest.(check bool) "same id" true (Gcn.Timer.equal a b);
  Alcotest.(check int) "ids equal" (Gcn.Timer.id a) (Gcn.Timer.id b);
  Alcotest.(check string) "name round-trips" "idem-test" (Gcn.Timer.name a)

let test_intern_distinct () =
  let a = Gcn.Timer.intern "distinct-a" in
  let b = Gcn.Timer.intern "distinct-b" in
  Alcotest.(check bool) "different ids" false (Gcn.Timer.equal a b);
  Alcotest.(check bool) "compare is consistent" true
    (Gcn.Timer.compare a b <> 0)

let test_intern_ids_dense () =
  let before = Gcn.Timer.count () in
  let t = Gcn.Timer.intern (Printf.sprintf "dense-%d" before) in
  Alcotest.(check int) "fresh name gets the next id" before (Gcn.Timer.id t);
  Alcotest.(check int) "count grows by one" (before + 1) (Gcn.Timer.count ())

let test_intern_across_domains () =
  (* All domains racing to intern the same names must agree on the ids. *)
  let names = List.init 16 (Printf.sprintf "race-%d") in
  let worker () = List.map (fun n -> Gcn.Timer.id (Gcn.Timer.intern n)) names in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  let local = worker () in
  List.iter
    (fun d ->
      Alcotest.(check (list int)) "domain agrees with main" local
        (Domain.join d))
    domains;
  (* And the registry kept names resolvable. *)
  List.iter2
    (fun n id ->
      Alcotest.(check string) "name resolvable" n
        (Gcn.Timer.name (Gcn.Timer.intern (Gcn.Timer.name (Gcn.Timer.intern n))));
      ignore id)
    names local

let () =
  Alcotest.run "gcn"
    [
      ( "runtime",
        [
          Alcotest.test_case "init effects" `Quick test_init_effects;
          Alcotest.test_case "timeout dispatch" `Quick test_timeout_dispatch;
          Alcotest.test_case "unknown timeout ignored" `Quick
            test_unknown_timeout_ignored;
          Alcotest.test_case "receive dispatch" `Quick test_receive_dispatch;
          Alcotest.test_case "spontaneous fires once" `Quick
            test_spontaneous_fires_once;
          Alcotest.test_case "fired trace" `Quick test_fired_trace;
          Alcotest.test_case "first enabled wins" `Quick
            test_first_enabled_action_wins;
          Alcotest.test_case "guard falls through" `Quick
            test_guard_false_falls_through;
          Alcotest.test_case "round end" `Quick test_round_end_trigger;
          Alcotest.test_case "divergence detected" `Quick
            test_divergent_spontaneous_detected;
          Alcotest.test_case "spontaneous chain" `Quick test_spontaneous_chain;
          Alcotest.test_case "self propagated" `Quick test_self_passed_to_handlers;
        ] );
      ( "clock",
        [
          Alcotest.test_case "init and handlers read ~now" `Quick
            test_now_reads_host_time;
          Alcotest.test_case "outside a call raises" `Quick
            test_now_outside_a_call_raises;
          Alcotest.test_case "nested call restores" `Quick
            test_now_nested_restores;
          Alcotest.test_case "restored after a raise" `Quick
            test_now_restored_after_raise;
        ] );
      ( "timer interning",
        [
          Alcotest.test_case "idempotent" `Quick test_intern_idempotent;
          Alcotest.test_case "distinct names, distinct ids" `Quick
            test_intern_distinct;
          Alcotest.test_case "dense ids" `Quick test_intern_ids_dense;
          Alcotest.test_case "cross-domain agreement" `Quick
            test_intern_across_domains;
        ] );
    ]
