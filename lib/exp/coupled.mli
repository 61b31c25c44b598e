(** Experiment plumbing for coupled sharded runs: reconstruct the global
    event bus and run attackers over it.

    A coupled run ({!Slpdas_sim.Shard.run_coupled}) hosts one engine per
    cell, so no single bus carries the whole deployment's events.  A
    {!recorder} subscribed through every cell's monitor captures each
    event with the stable key of the queue entry that produced it
    ({!Slpdas_sim.Engine.processing_key}); {!events} then merges the
    per-cell streams, each in its cell's pop order, by head key (ties to
    the lower cell index), which reproduces the unsharded sequential
    engine's bus order exactly: the sequential heap's next pop is the least
    of the cells' next pops.  [test_engine_equiv] oracles the stream
    equality differentially.

    Attackers run as {e pure folds} over the merged stream
    ({!Slpdas_attack.Hunter.fold}) rather than live subscribers: a live
    hunter stops the engine and emits into the bus — global actions no
    cell can take mid-window.  The fold ignores everything after its
    capture point, so its verdict matches the live hunter's on the run the
    live hunter would have stopped. *)

type 'm recorder

val recorder : unit -> 'm recorder

val monitor :
  'm recorder -> cell:Slpdas_sim.Shard.cell -> ('s, 'm) Slpdas_sim.Engine.t -> unit
(** Pass as [Shard.run_coupled ~monitor:(monitor r)].  Each cell's events
    land in a cell-private buffer; no locking is needed because monitors
    attach before the windows start and the pool barrier publishes each
    window's writes before the coordinator reads them. *)

val events : 'm recorder -> 'm Slpdas_sim.Event.t array
(** The recorded events in global sequential bus order.  Call after the
    coupled run returns. *)

val tap : ('s, 'm) Slpdas_sim.Engine.t -> unit -> 'm Slpdas_sim.Event.t array
(** [tap e] subscribes a recorder on a single (sequential) engine and
    returns a thunk yielding everything recorded so far in emission order —
    the sequential twin of {!events} for differential checks. *)

val capture :
  ?domains:int ->
  ?impl:Slpdas_sim.Engine.impl ->
  ?hunter:Slpdas_attack.Model.cls ->
  ?hunter_seed:int ->
  Slpdas_sim.Shard.plan ->
  link:Slpdas_sim.Link_model.t ->
  seed:int ->
  program:(self:int -> ('s, 'm) Slpdas_gcn.program) ->
  until:float ->
  start:int ->
  source:int ->
  message_id:('m -> int option) ->
  unit ->
  Slpdas_attack.Hunter.verdict * Slpdas_sim.Event.counters
(** Run [plan] coupled with a recording monitor and fold the hunter
    ({!Slpdas_attack.Hunter.fold}) over the merged stream.  [?hunter]
    selects the adversary class (default the classic local eavesdropper);
    [?hunter_seed] feeds the [Coop] placement.  The returned counters are
    the physics-only merge (the offline hunter emits no [Attacker_move]
    events). *)
