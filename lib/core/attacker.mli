(** The (R, H, M, s0, D) distributed eavesdropper of §III-B (Fig. 1).

    The attacker occupies a node position, hears the transmissions of that
    node and its 1-hop neighbours, and is parameterised by:
    - [r]: messages it can capture before it must decide a move;
    - [h]: how many recently visited locations it remembers;
    - [m]: moves it may make within one TDMA period;
    - [start]: initial position (the sink, in the paper's experiments);
    - [decide]: the function [D] mapping captured messages and history to the
      set of candidate next locations.

    Two consumers share this module: the discrete-event simulation (operational
    semantics, {!step_hear}/{!step_period}) and the schedule verifier
    (declarative semantics via {!heard_by}). *)

type heard = { location : int; slot : int }
(** One captured message: where it came from and in which TDMA slot.  In the
    simulation the slot is implicit in arrival time; messages are presented
    to [decide] in arrival (slot) order. *)

type decide = heard:heard list -> history:int list -> current:int -> int list
(** [decide ~heard ~history ~current] returns the candidate next locations in
    preference order; the empty list means "stay".  [heard] is ordered by
    slot (arrival order); [history] is most-recent-first. *)

type params = {
  r : int;
  h : int;
  m : int;
  start : int;
  decide : decide;
  decide_name : string;  (** for reports and experiment tables *)
}

val lowest_slot : decide
(** The canonical [D] of the paper: move to the source of the first message
    heard in the period (the lowest slot).  If that message came from the
    current position, stay. *)

val lowest_slot_avoiding_history : decide
(** Like {!lowest_slot} but skips locations present in the history — a
    strictly stronger attacker enabled by [h > 0] (backtracking avoidance,
    in the spirit of [8, 9] in the paper). *)

val random_heard : Slpdas_util.Rng.t -> decide
(** Moves to a uniformly random heard location: a weak baseline attacker. *)

val second_lowest : decide
(** Skips the earliest transmission and chases the second-lowest slot heard
    — an anti-decoy heuristic (the decoy is by construction the earliest
    transmitter in its neighbourhood).  Needs [r ≥ 2] to differ from
    staying put. *)

val epsilon_greedy : Slpdas_util.Rng.t -> epsilon:float -> decide
(** With probability [epsilon] moves to a uniformly random heard location,
    otherwise behaves like {!lowest_slot}: models an attacker that sometimes
    explores instead of trusting the gradient.
    @raise Invalid_argument if [epsilon] is outside [\[0, 1\]]. *)

val canonical : start:int -> params
(** The (1, 0, 1, s0, lowest-slot) attacker used in the paper's evaluation
    (§VI-C). *)

val make :
  ?decide:decide ->
  ?decide_name:string ->
  r:int ->
  h:int ->
  m:int ->
  start:int ->
  unit ->
  params
(** General constructor; defaults to the {!lowest_slot} decision.
    @raise Invalid_argument if [r < 1], [m < 1] or [h < 0]. *)

val heard_by :
  Slpdas_wsn.Graph.t -> Schedule.t -> at:int -> r:int -> heard list
(** [heard_by g sched ~at ~r] is the declarative hearing set used by the
    verifier: the [r] lowest-slotted transmissions audible at position [at]
    (the position's own node and its 1-hop neighbours), in slot order — the
    [1HopNsWithRLowestSlots] function of Algorithm 1. *)

val hearing : Slpdas_wsn.Graph.t -> Schedule.t -> r:int -> int -> heard list
(** [hearing g sched ~r] is {!heard_by} with the per-location audible list
    computed at most once per [(g, sched, r)] instantiation: the returned
    function memoises [heard_by g sched ~at ~r] by location.  The verifier's
    hot loop expands many states per location (the history budget [H]
    multiplies the state space), so rebuilding and re-sorting the audible
    list per expansion is pure waste.  The memo is only valid while [sched]
    is not mutated. *)

(** Operational attacker state, advanced by the simulation harness. *)
module State : sig
  type t

  val create : params -> t

  val params : t -> params

  val location : t -> int

  val moves_made : t -> int
  (** Moves made in the current period. *)

  val history : t -> int list
  (** Most-recent-first, length ≤ [h]. *)

  val path : t -> int list
  (** Every position occupied so far, oldest first (starts with [start]). *)

  val hear : t -> location:int -> slot:int -> unit
  (** Record a captured message (the [ARcv] action of Fig. 1).  Messages
      beyond [r] in the current decision window are discarded. *)

  val decide : t -> bool
  (** The [Decide] action of Fig. 1: if messages have been captured and the
      move budget allows, move to the first candidate of [D] (recording
      history) and clear the capture buffer.  Returns [true] iff the
      position changed. *)

  val period_end : t -> unit
  (** The [NextP] action of Fig. 1: reset the per-period move budget and
      discard buffered messages. *)
end
