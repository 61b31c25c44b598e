(** Guarded-command notation (GCN) runtime.

    The paper (§III-A) writes every protocol as a set of actions
    [⟨name⟩ :: ⟨guard⟩ → ⟨command⟩] in Dijkstra's guarded-command notation,
    with two special guard forms: [timeout(timer)] and [rcv(sender, msg)].
    This module executes that notation directly so the protocol code in
    [lib/core] is a transliteration of Figures 2–4 rather than a
    reinterpretation.

    An action is modelled as a function from the current state and an
    incoming {!type:trigger} to an optional [(new state, effects)] pair;
    [None] means the guard is false.  Commands are pure: all interaction with
    the environment (radio, timers) is expressed as {!type:effect_} values
    interpreted by the host (the discrete-event engine, or a test harness).

    Semantics of a delivered trigger: actions are tried in declaration order
    and the first enabled one fires (a deterministic refinement of GCN's
    nondeterministic choice — necessary for reproducible simulation).  After
    any action fires, {e spontaneous} actions (guards over state only, the
    bare-predicate guards of the paper such as [startR :: startNode → …]) are
    run to fixpoint.  A well-formed spontaneous action must falsify its own
    guard; the runtime enforces termination with a fuel bound. *)

(** Interned timer identities.

    Timer names in the paper's notation are symbolic ([timeout(thello)],
    [timeout(tperiod)], …); protocols here additionally mint dynamic names
    (e.g. one forwarding timer per in-flight flood).  [intern] maps each
    distinct name to a small dense int once, so the engine's per-timer
    bookkeeping is an array index instead of a string-keyed hashtable probe.
    The registry is global, append-only, and safe to use from multiple
    domains (copy-on-write under a mutex; reads are lock-free). *)
module Timer : sig
  type t

  val intern : string -> t
  (** [intern name] returns the canonical id for [name], allocating a fresh
      one on first use.  Interning the same name always yields [equal] ids,
      within and across domains. *)

  val id : t -> int
  (** Dense non-negative index, suitable for array addressing.  Ids are
      assigned in interning order; [id t < count ()] always holds. *)

  val name : t -> string
  (** The original name, for diagnostics and the event bus. *)

  val equal : t -> t -> bool

  val compare : t -> t -> int

  val count : unit -> int
  (** Number of distinct names interned so far, process-wide. *)

  val pp : Format.formatter -> t -> unit
end

type 'm trigger =
  | Timeout of Timer.t  (** the named timer expired *)
  | Receive of { sender : int; msg : 'm }
      (** a message was dequeued from the channel variable [ch] *)
  | Round_end
      (** the channel has been drained: the [rcv⟨⟩] pseudo-guard of Fig. 2
          ("finished receiving all messages").  The host raises this at the
          end of each dissemination round. *)

type 'm effect_ =
  | Broadcast of 'm  (** transmit to all 1-hop neighbours *)
  | Set_timer of { timer : Timer.t; after : float }
      (** (re)arm a one-shot timer [after] seconds from now *)
  | Set_timer_at of { timer : Timer.t; at : float }
      (** (re)arm a one-shot timer to fire at the absolute simulated time
          [at] — exactly [at], with no float arithmetic on the host's side —
          superseding any pending arming of the same timer.  Lets a program
          that stopped re-arming a periodic timer resume it on the exact
          float time the uninterrupted chain would have reached (see
          {!now}).  A host raises [Invalid_argument] when [at] lies before
          its current time. *)
  | Stop_timer of Timer.t  (** cancel a timer; no-op if not armed *)

type ('s, 'm) action = {
  name : string;
  handler : self:int -> 's -> 'm trigger -> ('s * 'm effect_ list) option;
      (** [None] when the guard is false for this state/trigger. *)
}

type ('s, 'm) spontaneous = {
  sname : string;
  sguard : 's -> bool;
  scommand : self:int -> 's -> 's * 'm effect_ list;
}

type ('s, 'm) program = {
  init : self:int -> 's * 'm effect_ list;
      (** initial state and boot effects (the paper's [init] actions). *)
  actions : ('s, 'm) action list;
  spontaneous : ('s, 'm) spontaneous list;
}

val now : unit -> float
(** The host's simulated time, readable from inside a running [init],
    action handler or spontaneous command: the [~now] given to the
    {!Instance.create} or {!Instance.deliver} call being executed.  Each
    call publishes it in a domain-local cell for its own duration only (a
    nested call restores the outer value), so instances on different
    domains never share a clock.  Raises [Invalid_argument] outside such a
    call.

    Together with {!Set_timer_at} this lets a node anchor timer chains to
    its real boot time: a node rebooted mid-run reads its boot instant in
    [init]. *)

exception Divergent of string
(** Raised when spontaneous actions fail to reach fixpoint within the fuel
    bound — a bug in the hosted protocol. *)

(** A running instance of a program at one node.  An instance keeps its
    state only, not the §III-A event trace ("event ⟨name⟩ has occurred"):
    a host that wants the trace wraps each action's [handler] and
    [scommand] to record its name. *)
module Instance : sig
  type ('s, 'm) t

  val create :
    ('s, 'm) program -> self:int -> now:float -> ('s, 'm) t * 'm effect_ list
  (** [create p ~self ~now] boots the program at simulated time [now]: runs
      [init], then spontaneous actions to fixpoint, returning the instance
      and all boot effects in order.  {!now} reads [now] meanwhile. *)

  val self : ('s, 'm) t -> int

  val state : ('s, 'm) t -> 's
  (** Current state (for observers and tests). *)

  val deliver : ('s, 'm) t -> now:float -> 'm trigger -> 'm effect_ list
  (** [deliver t ~now trigger] runs the first enabled action for [trigger]
      (if any), then spontaneous actions to fixpoint, and returns the
      effects in emission order; {!now} reads [now] meanwhile.  A trigger
      no action is enabled for is silently dropped, like a message arriving
      in a state that ignores it. *)
end
