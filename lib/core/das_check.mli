(** Decision procedures for the DAS definitions of the paper (§IV-A).

    Each checker returns the full list of violations rather than a bare
    boolean, which turns every failed property test into a readable
    counterexample and powers the CLI's [schedule --check] output.

    Condition numbering follows Definitions 2 and 3:
    1. each node has at most one slot — structural in {!Schedule.t};
    2. every non-sink node has a slot;
    3. (strong) every shortest-path-towards-sink neighbour transmits later /
       (weak) at least one neighbour transmits later or is the sink;
    4. no two distinct nodes within a 2-hop neighbourhood share a slot. *)

type violation =
  | Unassigned of int  (** condition 2: node has no slot *)
  | Collision of { a : int; b : int; slot : int }
      (** condition 4 (Def. 1): [a] and [b] are within 2 hops and share
          [slot]; reported once with [a < b] *)
  | Early_parent of { node : int; parent : int }
      (** strong condition 3: [parent] lies on a shortest path from [node]
          to the sink but does not transmit strictly later *)
  | No_forwarder of { node : int }
      (** weak condition 3: no neighbour of [node] is the sink or transmits
          later, so [node]'s data cannot make progress *)

val violation_to_string : violation -> string

val non_colliding : Slpdas_wsn.Graph.t -> Schedule.t -> int -> bool
(** [non_colliding g sched v] is Def. 1: [v] is assigned and no node in its
    2-hop neighbourhood [CG(v)] shares its slot. *)

val collisions : Slpdas_wsn.Graph.t -> Schedule.t -> violation list
(** All condition-4 violations. *)

val check_strong : Slpdas_wsn.Graph.t -> Schedule.t -> violation list
(** [check_strong g sched] is empty iff [sched] is a strong DAS for [g]
    (Def. 2). *)

val check_weak : Slpdas_wsn.Graph.t -> Schedule.t -> violation list
(** [check_weak g sched] is empty iff [sched] is a weak DAS for [g]
    (Def. 3). *)

val is_strong : Slpdas_wsn.Graph.t -> Schedule.t -> bool

val is_weak : Slpdas_wsn.Graph.t -> Schedule.t -> bool
