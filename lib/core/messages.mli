(** The protocol message vocabulary shared by all three phases.

    One variant per message kind of the paper: [Hello] for neighbour
    discovery (implicit in §VI-B's neighbour-discovery periods), [Dissem] for
    the Phase-1 state dissemination of Fig. 2 (its [normal] flag selects the
    assignment vs update interpretation), [Search] and [Change] for Phases 2
    and 3 (Figs. 3–4), and [Data] for normal-operation traffic (§VI-A: every
    node broadcasts a message in its time slot; the routing layer is
    flooding). *)

type ninfo = { hop : int; slot : int }
(** The per-node (hop, slot) record disseminated as [Ninfo] in Fig. 2. *)

type t =
  | Hello
  | Dissem of {
      normal : bool;  (** [false] marks an update-phase dissemination *)
      info : (int * ninfo option) list;
          (** the sender's [Ninfo] restricted to its neighbourhood and
              itself; [None] entries are known-but-unassigned neighbours,
              the competitor set [Others] is derived from them *)
      parent : int option;  (** the sender's chosen parent, [par] *)
    }
  | Search of { target : int; ttl : int }
      (** Phase-2 search token: only [target] acts on it; [ttl] is the
          remaining search distance [SD] *)
  | Change of { target : int; base_slot : int; ttl : int }
      (** Phase-3 refinement token: [target] takes slot [base_slot - 1];
          [ttl] is the remaining change length *)
  | Data of { origin : int; seq : int; readings : (int * int) list }
      (** normal-phase payload transmitted in the sender's TDMA slot.
          [readings] is the aggregate being convergecast: one
          [(source, generation period)] pair per sensor reading collected
          from the sender's subtree since its previous transmission *)
  | Neighbour_down of int
      (** failure-detector report: the carried node has crash-stopped.  Not
          a radio message — the fault injector ([Slpdas_fault.Injector])
          injects it directly into each surviving neighbour after a
          detection delay, modelling the link-layer beacon/ack timeout that
          TOSSIM deployments use to notice dead neighbours.  The receiver
          purges the node from its neighbourhood state and, if orphaned,
          re-enters Phase-1 provisioning (the update mode of Fig. 2) *)
  | Release of { target : int }
      (** repair-cascade detach: an orphan whose every surviving neighbour
          is one of its own convergecast children cannot re-parent without
          creating a cycle, so it hands the problem down — [target] (its
          best-placed child) is told to detach and re-anchor elsewhere,
          recursing if the child is in the same position.  Once the child
          re-anchors and disseminates, the original orphan adopts it as the
          new parent *)

val equal : t -> t -> bool
(** Structural equality, without the polymorphic [compare] walk. *)

val pp : Format.formatter -> t -> unit

val describe : t -> string
(** Short tag ("hello", "dissem", …) for counters and traces. *)

val message_id : t -> int option
(** The message instance a transmission belongs to, if it is data-bearing —
    the observation an eavesdropper keys its history on ([Data] only;
    control traffic is not attributable to a source).  Injective over
    (origin, seq). *)
