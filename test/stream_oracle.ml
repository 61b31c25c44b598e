(* Event-stream oracle for full protocol runs.

   A fixed grid of seeded [Runner] runs (grid size, mode, link model, engine
   implementation, seed, optional fault plan) is reduced to a text digest of
   every bus event except [Timer_fire], plus the run's result fields.  The
   digests in [Stream_digests] were recorded on the commit before the
   protocol parked its no-op dissemination and process rounds: parking may
   only remove timer fires, so every other event — broadcast, delivery,
   drop, attacker move, phase transition, fault event — must reproduce
   byte for byte.

   Events are rendered one line each: times in [%h] (exact hex floats),
   messages with [Messages.pp] followed by every (node, hop, slot) entry of
   a dissemination payload, which [pp] only summarises.  Lines are hashed
   with [Slpdas_util.Fnv] (stable across machines and compiler versions). *)

module Engine = Slpdas_sim.Engine
module Event = Slpdas_sim.Event
module Runner = Slpdas_exp.Runner
module Scenario = Slpdas_exp.Scenario
module Harness = Slpdas_exp.Harness
module Messages = Slpdas_core.Messages
module Protocol = Slpdas_core.Protocol
module Fault_plan = Slpdas_fault.Fault_plan
module Injector = Slpdas_fault.Injector

type link = Ideal | Lossy | Gaussian

type case = {
  dim : int;
  mode : Protocol.mode;
  link : link;
  impl : Engine.impl;
  seed : int;
  plan : (string * string) option;  (* label, fault plan in concrete syntax *)
}

type observation = {
  digest : string;  (* Fnv hex of the non-timer event lines *)
  events : int;  (* non-timer events *)
  timer_fires : int;
  captured : bool;
  attacker_final : int;
  total_messages : int;
  schedule : string;  (* Schedule.digest at source activation *)
}

(* Two churn plans, both with a revival: one crashes and revives inside the
   setup window (the revived nodes rerun the whole dissemination chain),
   the other after normal operation began, with link faults and a loss
   burst on top. *)
let churn_plans =
  [
    ("plan0", "crash@200:k=3;revive@300:all");
    ( "plan1",
      "linkdown@150:0-1;degrade@160:2-3,0.4;crash@405:k=2;revive@420:all;\
       burst@430:0.3,10" );
  ]

let cases =
  let grid =
    List.concat_map
      (fun dim ->
        List.concat_map
          (fun mode ->
            List.concat_map
              (fun link ->
                List.concat_map
                  (fun impl ->
                    List.map
                      (fun seed -> { dim; mode; link; impl; seed; plan = None })
                      [ 1; 2; 3; 4 ])
                  [ Engine.Fast; Engine.Reference ])
              [ Ideal; Lossy; Gaussian ])
          [ Protocol.Protectionless; Protocol.Slp ])
      [ 7; 11 ]
  in
  let churn =
    List.concat_map
      (fun dim ->
        List.concat_map
          (fun plan ->
            List.map
              (fun impl ->
                {
                  dim;
                  mode = Protocol.Slp;
                  link = Ideal;
                  impl;
                  seed = 1;
                  plan = Some plan;
                })
              [ Engine.Fast; Engine.Reference ])
          churn_plans)
      [ 7; 11 ]
  in
  grid @ churn

let name c =
  Printf.sprintf "%dx%d/%s/%s/%s/s%d%s" c.dim c.dim
    (match c.mode with Protocol.Protectionless -> "pl" | Protocol.Slp -> "slp")
    (match c.link with Ideal -> "ideal" | Lossy -> "lossy" | Gaussian -> "gauss")
    (match c.impl with Engine.Fast -> "fast" | Engine.Reference -> "ref")
    c.seed
    (match c.plan with None -> "" | Some (label, _) -> "/" ^ label)

let render_msg msg =
  let base = Format.asprintf "%a" Messages.pp msg in
  match msg with
  | Messages.Dissem { info; _ } ->
    base
    ^ String.concat ""
        (List.map
           (fun (v, e) ->
             match e with
             | None -> Printf.sprintf " %d:-" v
             | Some { Messages.hop; slot } ->
               Printf.sprintf " %d:%d/%d" v hop slot)
           info)
  | _ -> base

let render_event (ev : Messages.t Event.t) =
  match ev with
  | Event.Timer_fire _ -> None
  | Event.Broadcast { time; sender; msg } ->
    Some (Printf.sprintf "b %h %d %s" time sender (render_msg msg))
  | Event.Delivery { time; node; sender; msg } ->
    Some (Printf.sprintf "d %h %d %d %s" time node sender (render_msg msg))
  | Event.Drop { time; node; sender; collision } ->
    Some (Printf.sprintf "x %h %d %d %b" time node sender collision)
  | Event.Attacker_move { time; from_node; to_node } ->
    Some (Printf.sprintf "a %h %d %d" time from_node to_node)
  | Event.Phase_transition { time; phase } ->
    Some (Printf.sprintf "p %h %s" time phase)
  | Event.Node_failed { time; node } ->
    Some (Printf.sprintf "f %h %d" time node)
  | Event.Node_revived { time; node } ->
    Some (Printf.sprintf "r %h %d" time node)
  | Event.Link_changed { time; a; b; loss } ->
    Some (Printf.sprintf "l %h %d %d %h" time a b loss)

let scenario c =
  let topology = Slpdas_wsn.Topology.grid c.dim in
  let link =
    match c.link with
    | Ideal -> Slpdas_sim.Link_model.Ideal
    | Lossy -> Slpdas_sim.Link_model.Lossy 0.1
    | Gaussian -> Slpdas_sim.Link_model.default_gaussian
  in
  let config =
    {
      (Runner.default_config ~topology ~mode:c.mode ~seed:c.seed) with
      Runner.link;
    }
  in
  let s = Runner.scenario config |> Scenario.with_engine_impl c.impl in
  match c.plan with
  | None -> s
  | Some (_, plan) ->
    let plan =
      match Fault_plan.of_string plan with Ok p -> p | Error e -> failwith e
    in
    let ops =
      Fault_plan.compile
        ~protect:[ topology.Slpdas_wsn.Topology.source ]
        ~topology ~seed:(c.seed lxor 0xfa17) plan
    in
    Scenario.with_faults
      (fun engine ->
        Injector.arm ~detect_after:0.5 ~on_crash:Injector.notify_neighbours
          ~on_revive:Injector.hello_neighbours ~ops engine)
      s

let observe c =
  let h = Slpdas_util.Fnv.create () in
  let events = ref 0 and timer_fires = ref 0 in
  let s =
    Scenario.with_monitor
      (fun engine ->
        Engine.subscribe engine (fun ev ->
            match render_event ev with
            | None -> incr timer_fires
            | Some line ->
              incr events;
              Slpdas_util.Fnv.add_string h line))
      (scenario c)
  in
  let r = Harness.run s in
  {
    digest = Slpdas_util.Fnv.hex h;
    events = !events;
    timer_fires = !timer_fires;
    captured = r.Runner.captured;
    attacker_final = r.Runner.attacker_final;
    total_messages = r.Runner.total_messages;
    schedule = Slpdas_core.Schedule.digest r.Runner.schedule;
  }

(* The [Stream_digests] module source for the current build's runs. *)
let print_table () =
  print_string
    "(* Parent-pinned event-stream digests: see stream_oracle.ml.  Recorded\n\
    \   with [Stream_oracle.print_table] on the commit before no-op protocol\n\
    \   rounds were parked; do not regenerate from a later commit. *)\n\n\
     let table : (string * Stream_oracle.observation) list =\n\
    \  [\n";
  List.iter
    (fun c ->
      let o = observe c in
      Printf.printf
        "    ( %S,\n\
        \      { Stream_oracle.digest = %S; events = %d; timer_fires = %d;\n\
        \        captured = %b; attacker_final = %d; total_messages = %d;\n\
        \        schedule = %S } );\n"
        (name c) o.digest o.events o.timer_fires o.captured o.attacker_final
        o.total_messages o.schedule)
    cases;
  print_string "  ]\n"
