(** Typed, seed-deterministic fault plans.

    A plan is a list of timed fault actions — crash-stops, revivals,
    permanent link-down, transient link degradation and global message-loss
    bursts — described over a topology, independent of any engine.
    {!compile} resolves the symbolic targets (k random nodes, geographic
    regions, "everything currently down") into a time-sorted list of
    concrete per-node / per-link operations; {!Injector.arm} then queues
    those operations on an engine.

    Determinism contract: [compile] draws randomness only from its own
    [Slpdas_util.Rng.t] built from [seed], and resolves entries in
    time-sorted order — equal [(plan, topology, seed, protect)] inputs give
    equal operation lists on every run, machine and domain count.

    Concrete syntax (round-tripped by {!of_string} / {!to_string});
    entries are [;]-separated, each [kind@time:args]:

    {v
    crash@200:k=3            crash 3 uniformly-drawn non-sink nodes at t=200
    crash@200:node=17        crash node 17
    crash@200:region=0,0,9,9 crash every non-sink node with position
                             in the axis-aligned box [0,9]×[0,9] (metres)
    revive@300:node=17       revive node 17 (no-op if alive)
    revive@300:all           revive every node the plan has crashed so far
    linkdown@150:12-13       permanent link-down (loss probability 1)
    degrade@150:12-13,0.4    transient degradation (loss probability 0.4)
    restore@250:12-13        clear the override on link 12–13
    burst@410:0.3,25         global 30% message loss for 25 s
    v} *)

(** Which nodes an action applies to. *)
type target =
  | Node of int  (** one concrete node *)
  | Random_nodes of int
      (** [k] distinct nodes drawn uniformly from the non-sink, non-protected,
          currently-alive nodes (crash only) *)
  | Region of { x0 : float; y0 : float; x1 : float; y1 : float }
      (** every non-sink node whose position lies in the closed box *)
  | All_crashed
      (** every node crashed by earlier plan entries (revive only) *)

type action =
  | Crash of target  (** crash-stop: timers cancelled, state frozen *)
  | Revive of target  (** reboot with a fresh protocol instance *)
  | Link_down of { a : int; b : int }  (** permanent: loss probability 1 *)
  | Degrade of { a : int; b : int; loss : float }
      (** extra loss probability on one link, on top of the link model *)
  | Restore_link of { a : int; b : int }  (** clear a link override *)
  | Loss_burst of { loss : float; duration : float }
      (** global extra loss probability for [duration] seconds *)

type entry = { at : float; action : action }

type t = entry list
(** A plan is its entries; list order is irrelevant ({!compile} sorts). *)

val entry : at:float -> action -> entry

val to_string : t -> string
(** Concrete syntax (see above); [of_string (to_string p)] re-parses to an
    equivalent plan. *)

val of_string : string -> (t, string) result
(** Parse the concrete syntax; [Error] carries a human-readable reason.
    Besides malformed text it rejects every value no topology can make
    valid: a negative or non-finite time or burst duration, a loss
    probability outside [\[0, 1\]], a negative [k] and a NaN region
    bound. *)

(** {2 Compilation} *)

(** A concrete engine operation at a point in simulation time. *)
type op =
  | Fail of int
  | Restart of int
  | Set_link of { a : int; b : int; loss : float }
  | Set_global of float

type resolved = { time : float; op : op }

val validate :
  topology:Slpdas_wsn.Topology.t -> t -> (unit, string) result
(** [Ok ()] iff {!compile} accepts the plan on [topology]: every named node
    (crash/revive target, link endpoint) exists, no entry crashes the sink,
    and no entry uses a [Crash All_crashed] or a [Revive (Random_nodes _)].
    [Error] names the problem of the first offending entry, in list
    order. *)

val compile :
  ?protect:int list ->
  topology:Slpdas_wsn.Topology.t ->
  seed:int ->
  t ->
  resolved list
(** Resolve a plan against [topology] into a time-sorted operation list.
    The sink is never crashed; [protect] shields further nodes (typically
    the data sources) from [Random_nodes] draws.  [Loss_burst] expands to a
    set/clear pair of [Set_global] operations.
    @raise Invalid_argument with {!validate}'s reason when it rejects the
    plan. *)
