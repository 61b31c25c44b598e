(** The distributed 3-phase protocol of §V as guarded-command programs.

    Every node runs the same program, parameterised by a {!config}.  Time is
    organised as:

    {v
    |-- NDP periods --|------- dissemination rounds -------|-- normal op -->
    0                 t_das                                t_normal
        HELLO             DISSEM / process (Fig. 2)            DATA in slot
                          SEARCH at the search period (Fig. 3, SLP mode)
                          CHANGE + update dissem (Fig. 4, SLP mode)
    v}

    - {b Neighbour discovery}: each node broadcasts [Hello] once per period
      at a jittered offset for [neighbour_discovery_periods] periods.
    - {b Phase 1 (Fig. 2)}: from [t_das], nodes run dissemination rounds of
      length [dissemination_period].  Assigned nodes (and the sink, which
      advertises the virtual slot [∆ = num_slots]) broadcast their state once
      per round at a jittered offset; at 80% of each round every node runs
      the [process] action: unassigned nodes with potential parents choose a
      parent uniformly at random among those at minimal hop (the stand-in for
      TOSSIM arrival-order nondeterminism, DESIGN.md §2) and take slot
      [parent_slot - rank - 1], where [rank] is the node's position in a
      run-salted pseudo-random permutation of the parent's competitor set
      [Others] (identical at all siblings); assigned nodes resolve 2-hop slot
      collisions (farther-from-sink node, ties by larger id, decrements) and
      re-lower themselves below their parent when dissemination reveals a
      violation — the update mode of the paper.
    - {b Phase 2 (Fig. 3)}, SLP mode only: at [search_start_period] the sink
      emits a [Search] token that follows minimum-slot children for
      [search_distance] hops, then keeps forwarding at [ttl = 0] until it
      finds a node with an alternate potential parent, which becomes the
      redirection start node.
    - {b Phase 3 (Fig. 4)}, SLP mode only: the start node nominates an
      alternate potential parent; each [Change] target takes slot
      [base_slot - 1] (below everything audible around the nominator), marks
      itself update-mode ([normal = false]) so its children repair, and
      extends the chain away from parents and previously visited nodes for
      [change_length] hops.
    - {b Normal operation}: from [t_normal] every node broadcasts one [Data]
      message per TDMA period at offset [slot × slot_period] (§VI-A:
      flooding; every node transmits each period).

    The module only defines behaviour; running it under the simulator and
    attaching the attacker is the job of [Slpdas_exp.Runner]. *)

type mode = Protectionless | Slp

type config = {
  mode : mode;
  sink : int;
  num_slots : int;  (** ∆; Table I "Number of Slots" = 100 *)
  slot_period : float;  (** Table I P{_slot} = 0.05 s *)
  dissemination_period : float;  (** Table I P{_diss} = 0.5 s *)
  neighbour_discovery_periods : int;  (** Table I NDP = 4 *)
  minimum_setup_periods : int;  (** Table I MSP = 80 *)
  dissemination_timeout : int;  (** Table I DT = 5 *)
  search_distance : int;  (** Table I SD ∈ {3, 5} *)
  change_length : int;  (** Table I CL = ∆ss − SD *)
  refine_gap : int;
      (** decrement applied by each Phase-3 decoy below its nominator's
          neighbourhood slot floor; 1 is the paper-literal [nSlot − 1] (see
          {!Slp_refine.refine}) *)
  search_start_period : int;  (** period at which the sink starts Phase 2 *)
  run_seed : int;  (** salts all per-node randomness for this run *)
  data_sources : int list;
      (** nodes that sense the asset: each generates one reading per normal
          period, aggregated up the tree and recorded at the sink *)
  reliable_data : bool;
      (** snoop-acknowledged convergecast: after transmitting, a node
          listens for its readings inside its parent's aggregate later in
          the same period (the parent's slot is higher — that is the DAS
          property) and retries any that did not appear.  The classic WSN
          implicit-ack mechanism; off by default, matching the paper's
          unacknowledged flooding *)
}

val period_length : config -> float
(** One TDMA period: [num_slots × slot_period] (5 s with Table I values). *)

val das_start : config -> float
(** Start of Phase-1 dissemination ([NDP] periods in). *)

val normal_start : config -> float
(** Start of normal operation ([MSP] periods in). *)

(** Position of a node's periodic setup-round timer chain ([dissem] or
    [process]): the index of the chain's next round, counted from 0 up to
    the setup window's round count, and the absolute simulated time that
    round fires at.

    A round that does nothing — a dissemination that sends nothing, a
    process action that changes neither slot, parent, hop nor neighbour
    information — does not re-arm its timer: the chain parks ([armed =
    false]) and keeps its position.  A handled message wakes both chains and
    a process round that changed the assignment wakes the dissemination
    chain; waking re-arms the first round strictly after the current time
    with {!Slpdas_gcn.Set_timer_at}, at the exact float the never-parked
    chain would have fired on (see {!catch_up}).  Parking removes only timer
    fires: every transmission, reception and RNG draw is what it would be
    without it.  The sink's process chain parks on its first fire for
    good. *)
type chain = { round : int; at : float; armed : bool }

type chain_kind =
  | Dissem_chain
      (** round [r] fires at [das_start + r·Pdiss + jitter(r)], the jitter a
          stateless per-(run, node, round) hash *)
  | Process_chain  (** round [r] fires at [das_start + (r + 0.8)·Pdiss] *)

val catch_up : config -> chain_kind -> node:int -> now:float -> chain -> chain
(** [catch_up c kind ~node ~now chain] is the position a chain parked at
    [chain] resumes from when woken at [now]: its first round firing
    strictly after [now], or the end of the setup window, armed exactly when
    that round exists.  Chain times accumulate round gaps with [+.] in the
    order the never-parked chain's timers add them, so they are bit-equal
    to its fire times. *)

type ninfo_table
(** [Ninfo]: the (hop, slot) known per node; read with {!ninfo}. *)

type others_table
(** [Others]: the competitor set per potential parent; read with
    {!competitors}. *)

(** Per-node protocol state; transparent for tests and harnesses.

    Node sets are sorted, duplicate-free [int array]s.  A handler never
    writes an array or table it was given: it returns a fresh one when the
    contents change and the same one when they do not, so states stay
    immutable values and a no-op reception copies neither.  Callers must
    not write them either. *)
type state = {
  config : config;
  rng : Slpdas_util.Rng.t;
  (* Fig. 2 variables *)
  neighbours : int array;  (** myN *)
  npar : int array;  (** potential parents *)
  children : int array;
  others : others_table;  (** per potential parent: competitors *)
  ninfo : ninfo_table;  (** known (hop, slot); absent = ⊥ *)
  unassigned_seen : int array;
      (** nodes reported slotless in received disseminations *)
  hop : int option;
  parent : int option;
  slot : int option;
  normal : bool;  (** [false]: next dissemination is an update *)
  dissem_budget : int;  (** remaining sends of the current state (DT) *)
  last_sent : Messages.t option;
  dissem : chain;  (** the dissemination-round timer chain *)
  process : chain;  (** the process-action timer chain *)
  (* Fig. 3 variables *)
  search_sent : bool;  (** sink: Phase 2 already triggered *)
  from_ : int array;  (** senders of Search/Change tokens seen *)
  start_node : bool;
  pr : int;  (** remaining change-path budget when selected *)
  (* bookkeeping *)
  hello_remaining : int;
  data_seq : int;
  period_index : int;  (** normal-operation periods elapsed; -1 before *)
  pending_readings : (int * int) list;
      (** [(source, generation period)] readings collected since our last
          transmission — our own if we are a source, plus our children's
          aggregates (convergecast) *)
  awaiting_ack : (int * int) list;
      (** reliable mode: transmitted readings not yet snoop-acknowledged *)
  delivered : (int * int * int) list;
      (** sink only: [(source, generation period, arrival period)] for every
          reading that completed the convergecast *)
}

val ninfo : state -> int -> Messages.ninfo option
(** [ninfo s v] is node [v]'s (hop, slot) as [s] knows it; [None] is ⊥. *)

val competitors : state -> parent:int -> int array option
(** [competitors s ~parent] is the competitor set (sorted) that [parent]'s
    dissemination revealed, if [parent] was ever recorded as a potential
    parent. *)

val program : config -> self:int -> (state, Messages.t) Slpdas_gcn.program
(** The node program.  All nodes share [config]; per-node randomness is
    derived from [config.run_seed] and [self]. *)

val extract_schedule : n:int -> config -> (int -> state) -> Schedule.t
(** [extract_schedule ~n config state_of] collects each node's current slot
    into a {!Schedule.t} (the sink unassigned, as in Defs. 2–3). *)

(** Interned timers used by the program — exposed for tests. *)
module Timer : sig
  val hello : Slpdas_gcn.Timer.t
  val dissem : Slpdas_gcn.Timer.t
  val process : Slpdas_gcn.Timer.t
  val search : Slpdas_gcn.Timer.t
  val period : Slpdas_gcn.Timer.t
  val tx : Slpdas_gcn.Timer.t
end
