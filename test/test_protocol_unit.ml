(* Unit tests of the 3-phase protocol's guarded-command actions, driven by
   hand-fed triggers — no simulator, no radio.  These pin down the semantics
   of each action of Figs. 2-4 in isolation; test_protocol.ml covers the
   emergent end-to-end behaviour. *)

module Gcn = Slpdas_gcn
module Protocol = Slpdas_core.Protocol
module Messages = Slpdas_core.Messages

let config ?(mode = Protocol.Slp) ?(seed = 1) ?(sink = 9) () =
  {
    Protocol.mode;
    sink;
    num_slots = 100;
    slot_period = 0.05;
    dissemination_period = 0.5;
    neighbour_discovery_periods = 4;
    minimum_setup_periods = 80;
    dissemination_timeout = 5;
    search_distance = 3;
    change_length = 4;
    refine_gap = 1;
    search_start_period = 40;
    run_seed = seed;
    data_sources = [];
    reliable_data = false;
  }

let boot ?mode ?seed ?sink ~self () =
  let c = config ?mode ?seed ?sink () in
  Gcn.Instance.create (Protocol.program c ~self) ~self ~now:0.0

let deliver inst trigger = Gcn.Instance.deliver inst ~now:0.0 trigger

let state = Gcn.Instance.state

(* A dissemination message from [sender] with the given visible info. *)
let dissem ?(normal = true) ?(parent = None) ~info () =
  Messages.Dissem { normal; info; parent }

let ninfo hop slot = Some { Messages.hop; slot }

let hello inst ~from =
  ignore (deliver inst (Gcn.Receive { sender = from; msg = Messages.Hello }))

(* ------------------------------------------------------------------ *)
(* Boot and discovery                                                 *)
(* ------------------------------------------------------------------ *)

let timer_names effects =
  List.filter_map
    (function
      | Gcn.Set_timer { timer; _ } -> Some (Gcn.Timer.name timer)
      | _ -> None)
    effects
  |> List.sort compare

let test_init_timers_ordinary_node () =
  let _, effects = boot ~self:0 () in
  Alcotest.(check (list string)) "hello/dissem/period/process armed"
    [ "dissem"; "hello"; "period"; "process" ]
    (timer_names effects)

let test_init_timers_sink_slp () =
  let _, effects = boot ~self:9 () in
  Alcotest.(check (list string)) "search timer armed on the SLP sink"
    [ "dissem"; "hello"; "period"; "process"; "search" ]
    (timer_names effects)

let test_init_timers_sink_protectionless () =
  let _, effects = boot ~mode:Protocol.Protectionless ~self:9 () in
  Alcotest.(check (list string)) "no search timer"
    [ "dissem"; "hello"; "period"; "process" ]
    (timer_names effects)

let test_sink_initial_state () =
  let inst, _ = boot ~self:9 () in
  let s = state inst in
  Alcotest.(check (option int)) "hop 0" (Some 0) s.Protocol.hop;
  Alcotest.(check (option int)) "no transmission slot" None s.Protocol.slot;
  (match Protocol.ninfo s 9 with
  | Some { Messages.hop = 0; slot = 100 } -> ()
  | _ -> Alcotest.fail "sink must advertise the virtual slot delta");
  Alcotest.(check bool) "normal mode" true s.Protocol.normal

let test_hello_builds_neighbourhood () =
  let inst, _ = boot ~self:0 () in
  hello inst ~from:1;
  hello inst ~from:5;
  hello inst ~from:1;
  Alcotest.(check (list int)) "deduplicated neighbours" [ 1; 5 ]
    (Array.to_list (state inst).Protocol.neighbours)

(* ------------------------------------------------------------------ *)
(* receiveN: potential parents and competitor sets                    *)
(* ------------------------------------------------------------------ *)

let test_receive_normal_dissem_registers_parent () =
  let inst, _ = boot ~self:0 () in
  hello inst ~from:1;
  (* Node 1 is assigned (hop 1, slot 97) and sees us (0) as unassigned. *)
  ignore
    (deliver inst
       (Gcn.Receive
          {
            sender = 1;
            msg = dissem ~info:[ (0, None); (9, ninfo 0 100); (1, ninfo 1 97) ] ();
          }));
  let s = state inst in
  Alcotest.(check (list int)) "npar" [ 1 ]
    (Array.to_list s.Protocol.npar);
  (match Protocol.competitors s ~parent:1 with
  | Some competitors ->
    Alcotest.(check (list int)) "we are a competitor under 1" [ 0 ]
      (Array.to_list competitors)
  | None -> Alcotest.fail "no competitor set recorded");
  (match Protocol.ninfo s 9 with
  | Some { Messages.hop = 0; slot = 100 } -> ()
  | _ -> Alcotest.fail "2-hop info about the sink not merged")

let test_receive_dissem_unassigned_sender_not_parent () =
  let inst, _ = boot ~self:0 () in
  hello inst ~from:1;
  (* Node 1 has no slot yet: it cannot be a potential parent. *)
  ignore
    (deliver inst
       (Gcn.Receive
          { sender = 1; msg = dissem ~info:[ (0, None); (1, None) ] () }));
  Alcotest.(check (list int)) "npar empty" []
    (Array.to_list (state inst).Protocol.npar)

let test_children_follow_parent_field () =
  let inst, _ = boot ~self:0 () in
  hello inst ~from:1;
  let announce parent =
    ignore
      (deliver inst
         (Gcn.Receive
            {
              sender = 1;
              msg = dissem ~parent ~info:[ (1, ninfo 2 50) ] ();
            }))
  in
  announce (Some 0);
  Alcotest.(check (list int)) "child registered" [ 1 ]
    (Array.to_list (state inst).Protocol.children);
  announce (Some 5);
  Alcotest.(check (list int)) "child moved away" []
    (Array.to_list (state inst).Protocol.children)

let test_ninfo_merge_takes_lower_slot () =
  let inst, _ = boot ~self:0 () in
  hello inst ~from:1;
  hello inst ~from:2;
  let slot_of v =
    match Protocol.ninfo (state inst) v with
    | Some { Messages.slot; _ } -> Some slot
    | None -> None
  in
  (* Third-party relays (sender 2 reporting about node 1) merge
     monotonically: a stale higher value must not overwrite. *)
  let relay slot =
    ignore
      (deliver inst
         (Gcn.Receive
            { sender = 2; msg = dissem ~info:[ (1, ninfo 1 slot) ] () }))
  in
  relay 80;
  relay 90 (* stale higher value must not overwrite *);
  (match slot_of 1 with
  | Some 80 -> ()
  | Some slot -> Alcotest.failf "kept slot %d, expected 80" slot
  | None -> Alcotest.fail "no entry");
  relay 70;
  (match slot_of 1 with
  | Some 70 -> ()
  | _ -> Alcotest.fail "lower slot must win");
  (* The owner's announcement about itself is authoritative and replaces
     the relayed view outright — orphan repair may legitimately re-assign
     a node a higher slot than the one relays still carry. *)
  ignore
    (deliver inst
       (Gcn.Receive { sender = 1; msg = dissem ~info:[ (1, ninfo 1 85) ] () }));
  match slot_of 1 with
  | Some 85 -> ()
  | Some slot -> Alcotest.failf "kept slot %d, expected owner's 85" slot
  | None -> Alcotest.fail "no entry after owner announcement"

(* ------------------------------------------------------------------ *)
(* process: parent choice, ranks, collision resolution                *)
(* ------------------------------------------------------------------ *)

let assign_via_process inst ~parents ~competitors =
  (* Feed dissems from each assigned parent, then fire the process timer. *)
  List.iter
    (fun (p, hop, slot) ->
      hello inst ~from:p;
      ignore
        (deliver inst
           (Gcn.Receive
              {
                sender = p;
                msg =
                  dissem
                    ~info:((p, ninfo hop slot) :: List.map (fun c -> (c, None)) competitors)
                    ();
              })))
    parents;
  ignore (deliver inst (Gcn.Timeout Protocol.Timer.process))

let test_process_assigns_slot_below_parent () =
  let inst, _ = boot ~self:0 () in
  assign_via_process inst ~parents:[ (1, 1, 97) ] ~competitors:[ 0 ];
  let s = state inst in
  Alcotest.(check (option int)) "parent" (Some 1) s.Protocol.parent;
  Alcotest.(check (option int)) "hop" (Some 2) s.Protocol.hop;
  (match s.Protocol.slot with
  | Some slot -> Alcotest.(check bool) "below parent" true (slot < 97)
  | None -> Alcotest.fail "no slot assigned")

let test_process_prefers_min_hop_parent () =
  let inst, _ = boot ~self:0 () in
  (* Two potential parents: hop 3 and hop 1; only the min-hop one is
     eligible. *)
  assign_via_process inst
    ~parents:[ (1, 3, 60); (2, 1, 97) ]
    ~competitors:[ 0 ];
  let s = state inst in
  Alcotest.(check (option int)) "min-hop parent chosen" (Some 2) s.Protocol.parent;
  Alcotest.(check (option int)) "hop derived from it" (Some 2) s.Protocol.hop

let test_process_sibling_ranks_distinct () =
  (* Two siblings of the same parent, seeing the same competitor set, must
     pick distinct slots (the rank mechanism of Fig. 2). *)
  let slot_of self =
    let inst, _ = boot ~self () in
    assign_via_process inst ~parents:[ (5, 1, 97) ] ~competitors:[ 0; 2 ];
    (state inst).Protocol.slot
  in
  match (slot_of 0, slot_of 2) with
  | Some a, Some b ->
    Alcotest.(check bool) (Printf.sprintf "distinct slots %d vs %d" a b) true (a <> b);
    Alcotest.(check bool) "both below parent" true (a < 97 && b < 97)
  | _ -> Alcotest.fail "siblings unassigned"

let test_process_without_parents_is_noop () =
  let inst, _ = boot ~self:0 () in
  ignore (deliver inst (Gcn.Timeout Protocol.Timer.process));
  Alcotest.(check (option int)) "still unassigned" None (state inst).Protocol.slot

let test_process_collision_decrement () =
  (* After assignment, learning that a 2-hop node with smaller hop shares
     our slot makes us (the farther node) decrement. *)
  let inst, _ = boot ~self:0 () in
  assign_via_process inst ~parents:[ (1, 1, 97) ] ~competitors:[ 0 ];
  let before =
    match (state inst).Protocol.slot with Some s -> s | None -> assert false
  in
  (* A node 7 at hop 1 (closer than our hop 2) with the same slot. *)
  ignore
    (deliver inst
       (Gcn.Receive { sender = 1; msg = dissem ~info:[ (7, ninfo 1 before) ] () }));
  ignore (deliver inst (Gcn.Timeout Protocol.Timer.process));
  (match (state inst).Protocol.slot with
  | Some after -> Alcotest.(check int) "decremented" (before - 1) after
  | None -> Alcotest.fail "lost the slot");
  Alcotest.(check bool) "update mode entered" false (state inst).Protocol.normal

let test_process_collision_winner_keeps_slot () =
  (* If the colliding node is farther than us, we keep our slot. *)
  let inst, _ = boot ~self:0 () in
  assign_via_process inst ~parents:[ (1, 1, 97) ] ~competitors:[ 0 ];
  let before =
    match (state inst).Protocol.slot with Some s -> s | None -> assert false
  in
  ignore
    (deliver inst
       (Gcn.Receive { sender = 1; msg = dissem ~info:[ (7, ninfo 9 before) ] () }));
  ignore (deliver inst (Gcn.Timeout Protocol.Timer.process));
  match (state inst).Protocol.slot with
  | Some after -> Alcotest.(check int) "kept" before after
  | None -> Alcotest.fail "lost the slot"

(* ------------------------------------------------------------------ *)
(* receiveU: the weak-repair guard                                    *)
(* ------------------------------------------------------------------ *)

let test_update_with_forwarder_is_ignored () =
  let inst, _ = boot ~self:0 () in
  assign_via_process inst ~parents:[ (1, 1, 97) ] ~competitors:[ 0 ];
  let mine =
    match (state inst).Protocol.slot with Some s -> s | None -> assert false
  in
  (* Another neighbour (2) transmits later than us: weak DAS holds. *)
  hello inst ~from:2;
  ignore
    (deliver inst
       (Gcn.Receive { sender = 2; msg = dissem ~info:[ (2, ninfo 2 (mine + 5)) ] () }));
  (* Our parent drops below us and sends an update. *)
  ignore
    (deliver inst
       (Gcn.Receive
          { sender = 1; msg = dissem ~normal:false ~info:[ (1, ninfo 1 (mine - 3)) ] () }));
  (match (state inst).Protocol.slot with
  | Some after -> Alcotest.(check int) "slot untouched (weak DAS intact)" mine after
  | None -> Alcotest.fail "lost the slot")

let test_update_without_forwarder_relowers () =
  let inst, _ = boot ~self:0 () in
  assign_via_process inst ~parents:[ (1, 1, 97) ] ~competitors:[ 0 ];
  let mine =
    match (state inst).Protocol.slot with Some s -> s | None -> assert false
  in
  (* The parent is our only neighbour; it drops below us: weak DAS broken,
     we must re-lower below the parent's new slot. *)
  ignore
    (deliver inst
       (Gcn.Receive
          { sender = 1; msg = dissem ~normal:false ~info:[ (1, ninfo 1 (mine - 3)) ] () }));
  (match (state inst).Protocol.slot with
  | Some after -> Alcotest.(check int) "re-lowered below parent" (mine - 4) after
  | None -> Alcotest.fail "lost the slot");
  Alcotest.(check bool) "cascades the update phase" false (state inst).Protocol.normal

let test_update_from_non_parent_ignored () =
  let inst, _ = boot ~self:0 () in
  assign_via_process inst ~parents:[ (1, 1, 97) ] ~competitors:[ 0 ];
  let mine =
    match (state inst).Protocol.slot with Some s -> s | None -> assert false
  in
  hello inst ~from:2;
  ignore
    (deliver inst
       (Gcn.Receive
          { sender = 2; msg = dissem ~normal:false ~info:[ (2, ninfo 1 (mine - 3)) ] () }));
  match (state inst).Protocol.slot with
  | Some after -> Alcotest.(check int) "only the parent's update applies" mine after
  | None -> Alcotest.fail "lost the slot"

(* ------------------------------------------------------------------ *)
(* Phases 2-3: search and change actions                              *)
(* ------------------------------------------------------------------ *)

let broadcasts effects =
  List.filter_map (function Gcn.Broadcast m -> Some m | _ -> None) effects

let test_search_non_target_records_from () =
  let inst, _ = boot ~self:0 () in
  let effects =
    deliver inst
      (Gcn.Receive { sender = 4; msg = Messages.Search { target = 7; ttl = 2 } })
  in
  Alcotest.(check int) "no broadcast" 0 (List.length (broadcasts effects));
  Alcotest.(check (list int)) "sender recorded" [ 4 ]
    (Array.to_list (state inst).Protocol.from_)

let test_search_target_forwards_to_min_slot_child () =
  let inst, _ = boot ~self:0 () in
  assign_via_process inst ~parents:[ (1, 1, 97) ] ~competitors:[ 0 ];
  (* Two children announce themselves with distinct slots. *)
  List.iter
    (fun (child, slot) ->
      hello inst ~from:child;
      ignore
        (deliver inst
           (Gcn.Receive
              {
                sender = child;
                msg = dissem ~parent:(Some 0) ~info:[ (child, ninfo 3 slot) ] ();
              })))
    [ (5, 90); (6, 85) ];
  let effects =
    deliver inst
      (Gcn.Receive { sender = 1; msg = Messages.Search { target = 0; ttl = 2 } })
  in
  match broadcasts effects with
  | [ Messages.Search { target; ttl } ] ->
    Alcotest.(check int) "min-slot child" 6 target;
    Alcotest.(check int) "ttl decremented" 1 ttl
  | _ -> Alcotest.fail "expected one forwarded Search"

let test_search_ttl_zero_selects_start_node () =
  let inst, _ = boot ~self:0 () in
  (* Three potential parents: whichever one the node chose and whichever one
     sent the search token, an alternate remains. *)
  assign_via_process inst
    ~parents:[ (1, 1, 97); (2, 1, 95); (3, 1, 93) ]
    ~competitors:[ 0 ];
  let s = state inst in
  Alcotest.(check bool) "has alternate parents" true
    (Array.length s.Protocol.npar = 3);
  let effects =
    deliver inst
      (Gcn.Receive { sender = 1; msg = Messages.Search { target = 0; ttl = 0 } })
  in
  (* The spontaneous startR fires within the same delivery and nominates the
     alternate (never the chosen parent). *)
  (match broadcasts effects with
  | [ Messages.Change { target; base_slot; ttl } ] ->
    let parent = Option.get (state inst).Protocol.parent in
    Alcotest.(check bool) "nominee is not our parent" true (target <> parent);
    Alcotest.(check int) "ttl is change_length - 1" 3 ttl;
    (* base_slot is the minimum over our neighbourhood and ourselves. *)
    let mine = Option.get (state inst).Protocol.slot in
    Alcotest.(check bool) "base at most our slot" true (base_slot <= mine)
  | _ -> Alcotest.fail "expected the startR Change broadcast");
  Alcotest.(check bool) "start flag consumed" false (state inst).Protocol.start_node

let test_search_ttl_zero_without_alternates_forwards () =
  let inst, _ = boot ~self:0 () in
  assign_via_process inst ~parents:[ (1, 1, 97) ] ~competitors:[ 0 ];
  (* A child to forward to. *)
  hello inst ~from:5;
  ignore
    (deliver inst
       (Gcn.Receive
          { sender = 5; msg = dissem ~parent:(Some 0) ~info:[ (5, ninfo 3 80) ] () }));
  let effects =
    deliver inst
      (Gcn.Receive { sender = 1; msg = Messages.Search { target = 0; ttl = 0 } })
  in
  match broadcasts effects with
  | [ Messages.Search { target = 5; ttl = 0 } ] -> ()
  | _ -> Alcotest.fail "expected ttl-0 forwarding to the child"

let test_change_target_takes_slot_and_extends () =
  let inst, _ = boot ~self:0 () in
  assign_via_process inst ~parents:[ (1, 1, 97) ] ~competitors:[ 0 ];
  (* A non-parent neighbour the chain can extend to. *)
  hello inst ~from:5;
  ignore
    (deliver inst
       (Gcn.Receive { sender = 5; msg = dissem ~info:[ (5, ninfo 3 80) ] () }));
  let effects =
    deliver inst
      (Gcn.Receive
         { sender = 1; msg = Messages.Change { target = 0; base_slot = 60; ttl = 2 } })
  in
  Alcotest.(check (option int)) "took base - gap" (Some 59) (state inst).Protocol.slot;
  Alcotest.(check bool) "update mode" false (state inst).Protocol.normal;
  match broadcasts effects with
  | [ Messages.Change { target = 5; base_slot; ttl = 1 } ] ->
    (* Our new slot 59 is now the neighbourhood floor. *)
    Alcotest.(check int) "floor includes our new slot" 59 base_slot
  | _ -> Alcotest.fail "expected the chain to extend to node 5"

let test_change_last_hop_stops () =
  let inst, _ = boot ~self:0 () in
  assign_via_process inst ~parents:[ (1, 1, 97) ] ~competitors:[ 0 ];
  hello inst ~from:5;
  let effects =
    deliver inst
      (Gcn.Receive
         { sender = 1; msg = Messages.Change { target = 0; base_slot = 60; ttl = 0 } })
  in
  Alcotest.(check (option int)) "slot still taken" (Some 59) (state inst).Protocol.slot;
  Alcotest.(check int) "chain ends" 0 (List.length (broadcasts effects))

let test_change_non_target_only_records () =
  let inst, _ = boot ~self:0 () in
  let effects =
    deliver inst
      (Gcn.Receive
         { sender = 4; msg = Messages.Change { target = 7; base_slot = 60; ttl = 2 } })
  in
  Alcotest.(check int) "silent" 0 (List.length (broadcasts effects));
  Alcotest.(check (option int)) "slot untouched" None (state inst).Protocol.slot

let test_protectionless_ignores_search_and_change () =
  let inst, _ = boot ~mode:Protocol.Protectionless ~self:0 () in
  let e1 =
    deliver inst
      (Gcn.Receive { sender = 1; msg = Messages.Search { target = 0; ttl = 2 } })
  in
  let e2 =
    deliver inst
      (Gcn.Receive
         { sender = 1; msg = Messages.Change { target = 0; base_slot = 60; ttl = 2 } })
  in
  Alcotest.(check int) "search dropped" 0 (List.length e1);
  Alcotest.(check int) "change dropped" 0 (List.length e2);
  Alcotest.(check (option int)) "slot untouched" None (state inst).Protocol.slot

(* ------------------------------------------------------------------ *)
(* Dissemination budget (DT)                                          *)
(* ------------------------------------------------------------------ *)

let count_dissems effects =
  List.length
    (List.filter
       (function Gcn.Broadcast (Messages.Dissem _) -> true | _ -> false)
       effects)

let test_dissem_budget_exhausts () =
  let inst, _ = boot ~self:9 () in
  (* The sink is always dissemination-eligible; with an unchanged payload it
     may send at most DT = 5 times. *)
  let sent = ref 0 in
  for _ = 1 to 10 do
    sent := !sent + count_dissems (deliver inst (Gcn.Timeout Protocol.Timer.dissem))
  done;
  Alcotest.(check int) "DT bounds repeats" 5 !sent

let test_dissem_budget_resets_on_change () =
  let inst, _ = boot ~self:9 () in
  for _ = 1 to 10 do
    ignore (deliver inst (Gcn.Timeout Protocol.Timer.dissem))
  done;
  (* Learning a new neighbour changes the payload: budget refreshes. *)
  hello inst ~from:4;
  let sent = ref 0 in
  for _ = 1 to 10 do
    sent := !sent + count_dissems (deliver inst (Gcn.Timeout Protocol.Timer.dissem))
  done;
  Alcotest.(check int) "budget refreshed" 5 !sent

let test_unassigned_node_does_not_disseminate () =
  let inst, _ = boot ~self:0 () in
  Alcotest.(check int) "nothing to say" 0
    (count_dissems (deliver inst (Gcn.Timeout Protocol.Timer.dissem)))

(* ------------------------------------------------------------------ *)
(* Normal phase timers                                                *)
(* ------------------------------------------------------------------ *)

let test_period_timer_schedules_tx_at_slot () =
  let inst, _ = boot ~self:0 () in
  assign_via_process inst ~parents:[ (1, 1, 97) ] ~competitors:[ 0 ];
  let slot = Option.get (state inst).Protocol.slot in
  let effects = deliver inst (Gcn.Timeout Protocol.Timer.period) in
  let tx_delay =
    List.find_map
      (function
        | Gcn.Set_timer { timer; after }
          when Gcn.Timer.equal timer Protocol.Timer.tx -> Some after
        | _ -> None)
      effects
  in
  Alcotest.(check (option (float 1e-9))) "tx at slot x Pslot"
    (Some (float_of_int slot *. 0.05))
    tx_delay

let test_sink_period_timer_never_tx () =
  let inst, _ = boot ~self:9 () in
  let effects = deliver inst (Gcn.Timeout Protocol.Timer.period) in
  Alcotest.(check (list string)) "only the period rearm" [ "period" ]
    (timer_names effects)

let test_tx_broadcasts_pending_readings () =
  let inst, _ = boot ~self:0 () in
  assign_via_process inst ~parents:[ (1, 1, 97) ] ~competitors:[ 0 ];
  (* A child hands us two readings. *)
  hello inst ~from:5;
  ignore
    (deliver inst
       (Gcn.Receive
          { sender = 5; msg = dissem ~parent:(Some 0) ~info:[ (5, ninfo 3 80) ] () }));
  ignore
    (deliver inst
       (Gcn.Receive
          {
            sender = 5;
            msg = Messages.Data { origin = 5; seq = 0; readings = [ (8, 3); (8, 4) ] };
          }));
  let effects = deliver inst (Gcn.Timeout Protocol.Timer.tx) in
  (match broadcasts effects with
  | [ Messages.Data { readings; _ } ] ->
    Alcotest.(check (list (pair int int))) "aggregate forwarded" [ (8, 3); (8, 4) ]
      readings
  | _ -> Alcotest.fail "expected one Data broadcast");
  Alcotest.(check (list (pair int int))) "buffer drained" []
    (state inst).Protocol.pending_readings

let test_data_from_non_child_ignored () =
  let inst, _ = boot ~self:0 () in
  assign_via_process inst ~parents:[ (1, 1, 97) ] ~competitors:[ 0 ];
  ignore
    (deliver inst
       (Gcn.Receive
          {
            sender = 1 (* our parent, not a child *);
            msg = Messages.Data { origin = 1; seq = 0; readings = [ (1, 2) ] };
          }));
  Alcotest.(check (list (pair int int))) "not aggregated" []
    (state inst).Protocol.pending_readings

(* ------------------------------------------------------------------ *)
(* Robustness property                                                *)
(* ------------------------------------------------------------------ *)

(* Under arbitrary (well-formed) trigger sequences the protocol maintains
   two invariants: the hop is set at most once, and once assigned the slot
   only ever decreases (every mechanism in the paper lowers slots). *)
let prop_slot_monotone =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 40)
        (oneof
           [
             map (fun sender -> `Hello (1 + (sender mod 8))) int;
             map3
               (fun sender hop slot ->
                 `Dissem (1 + (sender mod 8), hop mod 5, 50 + (slot mod 50)))
               int int int;
             return `Process;
             map2
               (fun sender base -> `Change (1 + (sender mod 8), 20 + (base mod 60)))
               int int;
           ]))
  in
  QCheck.Test.make ~count:200 ~name:"slot decreases monotonically"
    (QCheck.make gen)
    (fun script ->
      let inst, _ = boot ~self:0 () in
      let ok = ref true in
      let last_slot = ref None in
      let last_hop = ref None in
      List.iter
        (fun step ->
          (match step with
          | `Hello sender -> hello inst ~from:sender
          | `Dissem (sender, hop, slot) ->
            ignore
              (deliver inst
                 (Gcn.Receive
                    {
                      sender;
                      msg = dissem ~info:[ (0, None); (sender, ninfo hop slot) ] ();
                    }))
          | `Process -> ignore (deliver inst (Gcn.Timeout Protocol.Timer.process))
          | `Change (sender, base) ->
            ignore
              (deliver inst
                 (Gcn.Receive
                    {
                      sender;
                      msg = Messages.Change { target = 0; base_slot = base; ttl = 1 };
                    })));
          let s = state inst in
          (match (!last_slot, s.Protocol.slot) with
          | Some old_slot, Some new_slot when new_slot > old_slot -> ok := false
          | Some _, None -> ok := false (* a slot must never be forgotten *)
          | _ -> ());
          (match (!last_hop, s.Protocol.hop) with
          | Some old_hop, new_hop when new_hop <> Some old_hop -> ok := false
          | _ -> ());
          last_slot := s.Protocol.slot;
          (match s.Protocol.hop with Some h -> last_hop := Some h | None -> ()))
        script;
      !ok)

(* ------------------------------------------------------------------ *)
(* Chain catch-up against the closure-recursive oracle                *)
(* ------------------------------------------------------------------ *)

module Oracle = Chain_catch_up_oracle

(* When a parked chain is woken, relative to its chain times: exactly on
   the time of a later round, between two rounds, before the parked round,
   or after the last setup round. *)
type wake = On of int | Between of int * float | Early of float | Late of float

let prop_catch_up_matches_oracle =
  let gen =
    QCheck.Gen.(
      let* run_seed =
        oneof [ small_signed_int; int_bound 1_000_000_000; int ]
      in
      let* node = int_bound 10_200 in
      let* kind = oneofl [ Protocol.Dissem_chain; Protocol.Process_chain ] in
      let* period = oneofl [ 0.5; 0.3; 0.7; 1.25 ] in
      let c = { (config ~seed:run_seed ()) with dissemination_period = period } in
      let rounds = Oracle.setup_rounds c in
      let* parked = oneof [ int_bound rounds; return 0; return rounds ] in
      let* wake =
        oneof
          [
            map (fun k -> On k) (int_bound 12);
            map2 (fun k f -> Between (k, f)) (int_bound 12) (float_bound_exclusive 1.0);
            map (fun f -> Early f) (float_bound_inclusive 3.0);
            map (fun f -> Late f) (float_bound_inclusive 3.0);
          ]
      in
      return (c, kind, node, parked, wake))
  in
  let print (c, kind, node, parked, wake) =
    Printf.sprintf "seed %d, %s chain, node %d, Pdiss %g, parked at round %d, %s"
      c.Protocol.run_seed
      (match kind with
      | Protocol.Dissem_chain -> "dissem"
      | Protocol.Process_chain -> "process")
      node c.Protocol.dissemination_period parked
      (match wake with
      | On k -> Printf.sprintf "woken on round +%d" k
      | Between (k, f) -> Printf.sprintf "woken %g past round +%d" f k
      | Early f -> Printf.sprintf "woken %gs early" f
      | Late f -> Printf.sprintf "woken %gs after the last round" f)
  in
  QCheck.Test.make ~count:300 ~name:"catch_up = closure-recursive replay"
    (QCheck.make ~print gen)
    (fun (c, kind, node, parked, wake) ->
      let rounds = Oracle.setup_rounds c in
      let time r = Oracle.chain_time c kind ~node (Int.min r rounds) in
      let at = time parked in
      let now =
        match wake with
        | On k -> time (parked + k)
        | Between (k, f) -> time (parked + k) +. (f *. c.Protocol.dissemination_period)
        | Early f -> at -. f
        | Late f -> time rounds +. f
      in
      let want_round, want_at =
        Oracle.catch_up c kind ~node ~now ~round:parked ~at
      in
      let got =
        Protocol.catch_up c kind ~node ~now
          { Protocol.round = parked; at; armed = false }
      in
      got.Protocol.round = want_round
      && Int64.equal
           (Int64.bits_of_float got.Protocol.at)
           (Int64.bits_of_float want_at)
      && Bool.equal got.Protocol.armed (want_round < rounds))

let () =
  Alcotest.run "protocol-unit"
    [
      ( "boot",
        [
          Alcotest.test_case "ordinary node timers" `Quick test_init_timers_ordinary_node;
          Alcotest.test_case "SLP sink timers" `Quick test_init_timers_sink_slp;
          Alcotest.test_case "protectionless sink timers" `Quick
            test_init_timers_sink_protectionless;
          Alcotest.test_case "sink initial state" `Quick test_sink_initial_state;
          Alcotest.test_case "hello neighbourhood" `Quick test_hello_builds_neighbourhood;
        ] );
      ( "receiveN",
        [
          Alcotest.test_case "registers parent" `Quick
            test_receive_normal_dissem_registers_parent;
          Alcotest.test_case "unassigned sender not parent" `Quick
            test_receive_dissem_unassigned_sender_not_parent;
          Alcotest.test_case "children track parent field" `Quick
            test_children_follow_parent_field;
          Alcotest.test_case "merge keeps lower slot" `Quick
            test_ninfo_merge_takes_lower_slot;
        ] );
      ( "process",
        [
          Alcotest.test_case "assigns below parent" `Quick
            test_process_assigns_slot_below_parent;
          Alcotest.test_case "prefers min-hop parent" `Quick
            test_process_prefers_min_hop_parent;
          Alcotest.test_case "sibling ranks distinct" `Quick
            test_process_sibling_ranks_distinct;
          Alcotest.test_case "no parents, no-op" `Quick test_process_without_parents_is_noop;
          Alcotest.test_case "collision decrement" `Quick test_process_collision_decrement;
          Alcotest.test_case "collision winner keeps slot" `Quick
            test_process_collision_winner_keeps_slot;
        ] );
      ( "receiveU",
        [
          Alcotest.test_case "forwarder: ignored" `Quick test_update_with_forwarder_is_ignored;
          Alcotest.test_case "no forwarder: re-lowers" `Quick
            test_update_without_forwarder_relowers;
          Alcotest.test_case "non-parent ignored" `Quick test_update_from_non_parent_ignored;
        ] );
      ( "search-change",
        [
          Alcotest.test_case "non-target records from" `Quick
            test_search_non_target_records_from;
          Alcotest.test_case "forwards to min-slot child" `Quick
            test_search_target_forwards_to_min_slot_child;
          Alcotest.test_case "ttl 0 selects start node" `Quick
            test_search_ttl_zero_selects_start_node;
          Alcotest.test_case "ttl 0 without alternates forwards" `Quick
            test_search_ttl_zero_without_alternates_forwards;
          Alcotest.test_case "change takes slot and extends" `Quick
            test_change_target_takes_slot_and_extends;
          Alcotest.test_case "change last hop stops" `Quick test_change_last_hop_stops;
          Alcotest.test_case "change non-target silent" `Quick
            test_change_non_target_only_records;
          Alcotest.test_case "protectionless drops tokens" `Quick
            test_protectionless_ignores_search_and_change;
        ] );
      ( "dissemination",
        [
          Alcotest.test_case "DT exhausts" `Quick test_dissem_budget_exhausts;
          Alcotest.test_case "budget resets on change" `Quick
            test_dissem_budget_resets_on_change;
          Alcotest.test_case "unassigned stays quiet" `Quick
            test_unassigned_node_does_not_disseminate;
        ] );
      ( "robustness", [ QCheck_alcotest.to_alcotest prop_slot_monotone ] );
      ( "chain catch-up",
        [ QCheck_alcotest.to_alcotest prop_catch_up_matches_oracle ] );
      ( "normal-phase",
        [
          Alcotest.test_case "tx at slot offset" `Quick test_period_timer_schedules_tx_at_slot;
          Alcotest.test_case "sink never tx" `Quick test_sink_period_timer_never_tx;
          Alcotest.test_case "tx broadcasts aggregate" `Quick
            test_tx_broadcasts_pending_readings;
          Alcotest.test_case "non-child data ignored" `Quick test_data_from_non_child_ignored;
        ] );
    ]
