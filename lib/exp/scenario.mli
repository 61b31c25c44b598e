(** An experiment scenario as a first-class value.

    A scenario packages everything one seeded discrete-event run needs —
    topology, per-node protocol program, link model, the attacker/observer
    factory and the metric extractors — behind a single type that
    {!Harness.run} executes generically.  The SLP-aware DAS protocol and the
    phantom-routing and fake-source baselines are all expressed as scenario
    builders ({!Runner.scenario}, {!Phantom_runner.scenario},
    {!Fake_runner.scenario}); a new protocol plugs into every experiment
    path (single runs, parallel sweeps, event/metric export) by providing
    one more builder instead of copying a run loop.

    Type parameters: ['s]/['m] are the protocol's per-node state and message
    types (the engine's parameters); ['obs] is the scenario's private
    observation state built by [attach] (attacker state, probe refs);
    ['r] is the published result type. *)

type ('s, 'm, 'obs, 'r) t = {
  name : string;  (** for reports and event exports *)
  topology : Slpdas_wsn.Topology.t;
  link : Slpdas_sim.Link_model.t;
  airtime : float option;
      (** destructive-interference modelling (see {!Slpdas_sim.Engine.create}) *)
  engine_impl : Slpdas_sim.Engine.impl;
      (** which engine implementation hosts the run; [Fast] unless the
          scenario is being differentially checked against the reference *)
  engine_seed : int;
      (** seed for the engine's link-loss RNG, already salted per protocol
          family so families draw independent streams from the same run seed *)
  program : self:int -> ('s, 'm) Slpdas_gcn.program;
  deadline : float;  (** absolute simulation time the run executes until *)
  attach : ('s, 'm) Slpdas_sim.Engine.t -> 'obs;
      (** attacker factory and harness wiring: subscribe observers on the
          event bus, schedule control callbacks, and return the run's
          mutable observation state.  Called once, on a freshly created
          engine, after all [monitors]. *)
  extract : ('s, 'm) Slpdas_sim.Engine.t -> 'obs -> 'r;
      (** metric extractors: turn the final engine and observation state
          into the published result.  Called after the run completes. *)
  monitors : (('s, 'm) Slpdas_sim.Engine.t -> unit) list;
      (** extra observers (trace recorders, probes), attached before
          [attach] in list order.  Replaces the removed [?instrument]
          callback of the old runners — and unlike it, works in
          {!Harness.run_many} parallel fan-out, because the whole scenario
          (monitors included) is built per run inside the worker. *)
  faults : (('s, 'm) Slpdas_sim.Engine.t -> unit) list;
      (** fault arming hooks, run after [monitors] and before [attach]:
          each schedules its fault actions (crash-stops, link overrides,
          loss bursts — see [Slpdas_fault.Injector.arm]) as engine
          callbacks.  Unlike monitors, faults deliberately perturb the run;
          they stay deterministic because everything they do is queued
          through {!Slpdas_sim.Engine.schedule} at plan-fixed times. *)
}

val make :
  ?airtime:float option ->
  ?engine_impl:Slpdas_sim.Engine.impl ->
  ?monitors:(('s, 'm) Slpdas_sim.Engine.t -> unit) list ->
  ?faults:(('s, 'm) Slpdas_sim.Engine.t -> unit) list ->
  name:string ->
  topology:Slpdas_wsn.Topology.t ->
  link:Slpdas_sim.Link_model.t ->
  engine_seed:int ->
  program:(self:int -> ('s, 'm) Slpdas_gcn.program) ->
  deadline:float ->
  attach:(('s, 'm) Slpdas_sim.Engine.t -> 'obs) ->
  extract:(('s, 'm) Slpdas_sim.Engine.t -> 'obs -> 'r) ->
  unit ->
  ('s, 'm, 'obs, 'r) t

val with_monitor :
  (('s, 'm) Slpdas_sim.Engine.t -> unit) ->
  ('s, 'm, 'obs, 'r) t ->
  ('s, 'm, 'obs, 'r) t
(** Append an observer, e.g. [with_monitor (fun e ->
    Slpdas_sim.Engine.subscribe e on_event) scenario].  Monitors must only
    observe (subscribe, record): anything that queues engine events or
    injects triggers would perturb the run. *)

val with_faults :
  (('s, 'm) Slpdas_sim.Engine.t -> unit) ->
  ('s, 'm, 'obs, 'r) t ->
  ('s, 'm, 'obs, 'r) t
(** Append a fault arming hook (see the [faults] field). *)

val with_engine_impl :
  Slpdas_sim.Engine.impl -> ('s, 'm, 'obs, 'r) t -> ('s, 'm, 'obs, 'r) t
(** Select the engine implementation (default [Fast]); the equivalence
    tests rerun a scenario under [Reference] and compare observables. *)

