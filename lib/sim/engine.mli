(** Deterministic discrete-event simulation engine.

    The engine plays the role TOSSIM plays in the paper: it hosts one GCN
    program instance per node of a topology, delivers timer expirations and
    radio messages as events, and publishes everything that happens on a
    structured event bus ({!Event}) for observers such as the eavesdropping
    attacker, trace recorders and metric collectors.  Harness-driven control
    events (TDMA round boundaries, measurement probes) enter through
    {!schedule} and {!inject}; harness-level occurrences (attacker moves,
    phase transitions) can be published onto the same bus through {!emit}.

    Events are ordered by one key [(time, k1, k2)]: an uncoupled engine
    pushes [(time, 0, sequence number)], i.e. same-time events run in push
    order, so runs are totally deterministic given the topology, the
    programs and the link-model RNG.  (A coupled engine keys by content
    instead, see [coupling] at {!create}.)  The engine keeps no per-node
    record of fired actions; observers that want one wrap the program.
    Subscribing observers never perturbs the run: notifications are
    synchronous and queue nothing.

    Type parameters: ['s] is the per-node protocol state, ['m] the message
    type; all nodes run programs over the same state and message types. *)

type ('s, 'm) t

(** Engine implementation selector.

    [Fast] (the default) runs the precomputation-and-batching hot path: a
    per-topology link cache built at {!create} (delivery = one RNG draw and
    a compare), per-node [int array] timer generations indexed by interned
    {!Slpdas_gcn.Timer} ids, and one arrival event per broadcast expanded at
    pop time.  [Reference] runs the original per-neighbour-event,
    string-keyed implementation.  The two are observably equivalent — same
    RNG draw sequence, same event ordering, same counters, states and
    schedules — which the test suite enforces differentially; [Reference]
    exists as that oracle and as the benchmark baseline. *)
type impl = Fast | Reference

val propagation_delay : float
(** Uniform link latency in seconds between a transmission and its arrivals.
    Also the conservative lookahead horizon of coupled sharded runs: an
    event processed at time [s] can influence another cell no earlier than
    [s + propagation_delay], so cells may run [propagation_delay]-wide
    windows independently and exchange boundary deliveries at barriers. *)

(** Coupled-cell wiring (built by {!Shard}): the engine hosts one cell of a
    larger deployment whose cut edges were kept as boundary ports.

    [global_ids.(v)] is local node [v]'s identity in the base deployment
    (strictly ascending, so local order is global order); programs are
    booted with the {e global} self and every event on the bus reports
    global ids.  [lanes.(v)] is the node's private RNG stream: all draws a
    broadcast by [v] makes (link verdicts, fault-layer draws) come from it,
    in full global-adjacency-row order — local neighbours and ports merged
    back into their original positions via [ports_pos] — so the draw
    sequence depends only on [v]'s own broadcast history, never on the cell
    decomposition.  [ports_off] is a CSR row index (length [n + 1]) into the
    flat port arrays; [ports_target]/[ports_x]/[ports_y] give each cut
    neighbour's global id and coordinates.  [send] is invoked for every
    boundary delivery with the absolute arrival time, the {e global} sender
    id, the sender's push counter (the stable-key [k2] the unsharded engine
    would have assigned) and the {e global} target id; the hosting shard
    buffers it for {!ingest_delivery} into the destination cell at the next
    window barrier. *)
type 'm coupling = {
  global_ids : int array;
  lanes : Slpdas_util.Rng.t array;
  ports_off : int array;
  ports_pos : int array;
  ports_target : int array;
  ports_x : float array;
  ports_y : float array;
  send : at:float -> src:int -> sseq:int -> target:int -> msg:'m -> unit;
}

val create :
  ?impl:impl ->
  ?airtime:float ->
  ?coupling:'m coupling ->
  topology:Slpdas_wsn.Topology.t ->
  link:Link_model.t ->
  rng:Slpdas_util.Rng.t ->
  program:(self:int -> ('s, 'm) Slpdas_gcn.program) ->
  unit ->
  ('s, 'm) t
(** [create ~topology ~link ~rng ~program ()] boots [program ~self:v] for every
    node [v] at time 0 and queues their boot effects.  [rng] drives link-loss
    sampling only; protocol-level randomness belongs in the programs
    themselves.

    Every init and action runs with {!Slpdas_gcn.now} reading the engine's
    current time.  [Set_timer] fires at [time + after];
    [Set_timer_at { at }] fires at exactly [at] (both impls push the given
    float unchanged) and raises [Invalid_argument] when [at] is before the
    current time.

    The [Fast] impl folds each broadcast's delivered arrivals into one
    batch event at every network size; the [Reference] impl pushes one
    event per arrival.  Both pop, emit and count identically.

    [airtime] enables destructive-interference modelling: each transmission
    occupies the channel for [airtime] seconds, and a reception at [v] is
    destroyed when any {e other} transmission audible at [v] (a neighbour's,
    or [v]'s own — radios are half-duplex) overlaps it.  The paper's TDMA
    slots exist precisely to prevent this; with [airtime] set, schedules
    violating the 2-hop collision-freedom of Def. 1 measurably lose data
    while collision-free ones do not.  Omitted (default), transmissions are
    instantaneous and never interfere, matching the paper's ideal
    communication model.

    [coupling] hosts the topology as one cell of a larger deployment (see
    {!type:coupling}): programs boot with global selves, events report
    global ids, same-time events are ordered by the schedule-independent
    stable key [(k1, k2)] instead of push order, every node draws from its
    own RNG lane ([rng] is then unused).  A [Fast] cell still folds each
    broadcast's {e local} deliveries into one batch event, which carries
    every recipient's stable key and is queued under the first; at pop
    time it expands in key order, and if an event pushed meanwhile (a
    zero-delay timer, a harness [schedule] at the current time) keys below
    the next recipient, or the engine stops, the rest of the batch is
    re-queued under that recipient's key — so batched cells pop, emit and
    report {!processing_key}s exactly as the [Reference] impl's singleton
    cells do.
    Cut-edge deliveries always leave one by one through [send].  A
    coupled run driven through {!run_window}/{!ingest_delivery} barriers is
    byte-identical to the unsharded sequential engine built with the
    identity coupling over the base deployment.
    @raise Invalid_argument if [coupling] is combined with [airtime]
    (cross-boundary interference has zero latency, so no positive lookahead
    window exists), or if the coupling arrays do not cover the topology. *)

val time : ('s, 'm) t -> float
(** Current simulation time in seconds. *)

val topology : ('s, 'm) t -> Slpdas_wsn.Topology.t

val node_state : ('s, 'm) t -> int -> 's
(** Observe a node's current protocol state. *)

val subscribe : ('s, 'm) t -> ('m Event.t -> unit) -> unit
(** Register an observer on the event bus, invoked synchronously (in
    registration order) for every {!Event.t} the run produces: broadcasts,
    deliveries, drops, timer fires, and any harness events published with
    {!emit}.  This replaces the engine's former single [on_broadcast] hook;
    an eavesdropper filters for [Event.Broadcast] (it hears transmissions
    regardless of per-link delivery outcomes).  An observer registered
    while an event is being published first hears the next one. *)

val emit : ('s, 'm) t -> 'm Event.t -> unit
(** Publish a harness-level event (attacker move, phase transition, …) to
    all subscribers and count it in {!counters}.  Emission is synchronous
    and does not enter the simulation queue, so it never affects protocol
    execution. *)

val counters : ('s, 'm) t -> Event.counters
(** Always-on per-run aggregate of every event so far (including drops and
    harness events), maintained whether or not anyone subscribed. *)

val schedule : ('s, 'm) t -> at:float -> (('s, 'm) t -> unit) -> unit
(** [schedule t ~at f] queues the harness callback [f] at absolute time
    [at].  Callbacks may inject triggers, schedule further callbacks or stop
    the run.  @raise Invalid_argument if [at] is in the past. *)

val inject : ('s, 'm) t -> node:int -> 'm Slpdas_gcn.trigger -> unit
(** [inject t ~node trigger] delivers a trigger to a node immediately (at the
    current time), processing any resulting effects.  Used by the harness for
    [Round_end] and by tests. *)

val broadcasts : ('s, 'm) t -> int
(** Total number of radio transmissions so far (the paper's message-overhead
    metric counts transmissions, not receptions). *)

val broadcasts_by_node : ('s, 'm) t -> int array
(** Per-node transmission counts. *)

val deliveries : ('s, 'm) t -> int
(** Total successful receptions so far. *)

val stop : ('s, 'm) t -> unit
(** Request that [run_until] return after the current event. *)

val stopped : ('s, 'm) t -> bool

val fail_node : ('s, 'm) t -> int -> unit
(** [fail_node t v] crash-stops node [v]: from now on it processes no
    triggers (timers, receptions, injections) and emits nothing.  Its last
    state remains observable through {!node_state}.  The node's pending
    timers are cancelled, and an {!Event.Node_failed} event is published
    and counted.  Idempotent; reversible with {!revive_node}.
    @raise Invalid_argument if [v] is out of range. *)

val revive_node : ('s, 'm) t -> int -> unit
(** [revive_node t v] reboots a crashed node: a fresh program instance is
    created for [v] (crash-stop wiped its volatile state) and its boot
    effects are applied at the current time, after an {!Event.Node_revived}
    event is published.  No-op if [v] is not failed.
    @raise Invalid_argument if [v] is out of range. *)

val node_failed : ('s, 'm) t -> int -> bool

(** {2 Fault layer}

    A link-override table layered on top of the base {!Link_model}: each
    override adds an extra, independent loss probability for one edge
    (or, via {!set_global_loss}, for every delivery).  The layer is
    consulted only after the base model delivers and only while at least
    one override is active, so fault-free runs consume exactly the RNG
    draws they always did — the engine-equivalence contract extends to
    runs with faults. *)

val set_link_loss : ('s, 'm) t -> a:int -> b:int -> float -> unit
(** [set_link_loss t ~a ~b p] makes deliveries on the (undirected) edge
    [(a, b)] additionally fail with probability [p] (clamped to [\[0,1\]];
    [1] is a hard link-down, [0] removes the override).  Publishes and
    counts an {!Event.Link_changed} event.
    @raise Invalid_argument if a node is out of range. *)

val set_global_loss : ('s, 'm) t -> float -> unit
(** [set_global_loss t p] makes {e every} delivery additionally fail with
    probability [p] (clamped; [0] switches the burst off) — transient
    message-loss bursts.  Publishes an {!Event.Link_changed} event with
    [a = b = -1]. *)

val step : ('s, 'm) t -> bool
(** Process the next event.  [false] iff the queue was empty.  Under the
    [Fast] impl all of a broadcast's arrivals form one batch event, so a
    single [step] may process several receptions that the [Reference] impl
    spreads over as many steps (after {!stop}, one per step, as the
    [Reference] impl pops them); {!run_until}-driven outcomes are
    unaffected. *)

val run_until : ('s, 'm) t -> float -> unit
(** [run_until t deadline] processes events with time ≤ [deadline] (or until
    {!stop} / queue exhaustion) and advances the clock to [deadline] if not
    stopped early. *)

(** {2 Conservative windows (coupled sharding)}

    The driving surface {!Shard.run_coupled} uses: cells repeatedly run the
    half-open window [\[t_next, t_next + propagation_delay)] — where
    [t_next] is the minimum {!next_event_time} over all cells — then
    exchange the boundary deliveries their [send] hooks produced via
    {!ingest_delivery} at the barrier.  Any event processed inside the
    window sends cross-boundary arrivals no earlier than the window's end,
    so every cell always holds {e all} of its events below the window bound
    before running it — the classic null-message-free conservative
    guarantee. *)

val next_event_time : ('s, 'm) t -> float option
(** Timestamp of the earliest pending event, if any. *)

val run_window : ('s, 'm) t -> stop_before:float -> deadline:float -> unit
(** [run_window t ~stop_before ~deadline] processes events with
    time < [stop_before] and time ≤ [deadline], in queue order, without
    advancing the clock past the last processed event (use {!advance_to}
    once the whole coupled run is over). *)

val advance_to : ('s, 'm) t -> float -> unit
(** Advance the clock to [max now time] (no-op when stopped), mirroring the
    final clock advance of {!run_until}. *)

val ingest_delivery :
  ('s, 'm) t -> at:float -> src:int -> sseq:int -> node:int -> msg:'m -> unit
(** [ingest_delivery t ~at ~src ~sseq ~node ~msg] enqueues a boundary
    delivery produced by a neighbouring cell's [send] hook: a [Deliver]
    event at absolute time [at] for {e local} node [node] from {e global}
    sender [src], keyed [(src, sseq)] — the stable key the unsharded engine
    assigned to the same push, so the destination queue interleaves it
    exactly where the sequential run would.
    @raise Invalid_argument on an uncoupled engine or if [node] is out of
    range. *)

val processing_key : ('s, 'm) t -> int * int
(** Stable key [(k1, k2)] of the event currently being processed — during
    boot, [(global id, -1)] of the booting node; [(-1, _)] under harness
    callbacks of a coupled engine.  An uncoupled engine reports
    [(0, push sequence number)] outside boot.  Observers use it to merge
    per-cell event streams into the sequential emission order: sorting
    buffered emissions by [(time, k1, k2, buffer position)] reproduces the
    unsharded engine's order for all node-sourced events. *)
