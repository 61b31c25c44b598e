(** Centralized reference construction of a DAS schedule.

    This mirrors Phase 1 of the paper (Fig. 2) as a whole-graph algorithm:
    nodes are processed level by level outwards from the sink; each picks a
    shortest-path parent and takes the slot [parent_slot - rank - 1], where
    [rank] is its index among the parent's potential children (the
    [Others\[par\]] competitor set of Fig. 2); 2-hop slot collisions are then
    resolved by decrementing the node that is farther from the sink (ties by
    larger identifier), re-lowering children below their parents until a
    fixpoint, exactly like the update mode of the distributed protocol.

    With [rng] absent every choice is the paper's deterministic [min]
    tie-break; with [rng] present, parent choice and sibling ordering are
    randomized, which stands in for the TOSSIM timing jitter that makes the
    paper's runs differ (DESIGN.md §2).

    The distributed implementation ({!Das_phase}) must converge to a schedule
    this builder accepts; tests enforce that. *)

type result = {
  schedule : Schedule.t;
  parent : int option array;
      (** chosen aggregation-tree parent; [None] for the sink and for nodes
          unreachable from the sink *)
  hop : int array;  (** hop distance from the sink; [-1] if unreachable *)
}

val default_delta : int
(** The sink's virtual slot [∆]; 100, the [slots] parameter of Table I. *)

val build :
  ?rng:Slpdas_util.Rng.t ->
  ?delta:int ->
  Slpdas_wsn.Graph.t ->
  sink:int ->
  result
(** [build g ~sink] constructs a DAS for [g].  On a connected graph the
    result is a complete strong DAS (tests assert this across topologies).
    Unreachable nodes are left unassigned.
    @raise Failure if collision resolution fails to reach a fixpoint (cannot
    happen on sane inputs; guarded by fuel). *)

val build_compact :
  ?rng:Slpdas_util.Rng.t ->
  Slpdas_wsn.Graph.t ->
  sink:int ->
  result
(** [build_compact g ~sink] is the classic minimum-latency aggregation
    scheduling heuristic the DAS literature optimises for: nodes are
    processed leaves-first (decreasing hop) and greedily take the {e
    smallest} slot that is above all of their subtree's slots and collision
    free in their 2-hop neighbourhood.  The resulting schedules use far
    fewer distinct slots than the paper's top-down [∆ − rank] assignment
    (shorter TDMA periods, lower aggregation latency) but their slot field
    is exactly the gradient an eavesdropper wants — the bench quantifies the
    latency/privacy trade between the two builders.  The result satisfies
    the same strong-DAS contract as {!build}. *)

val schedule_length : Schedule.t -> int
(** Number of distinct slots the TDMA period must provision,
    [max - min + 1]; 0 for an empty schedule.  The latency proxy used when
    comparing builders. *)

val node_order_key : salt:int -> int -> int
(** Run-salted total order on node identifiers used for collision
    tie-breaking.  The paper's rule is "the larger identifier decrements";
    applied verbatim it biases low slots towards high-id regions, an
    artefact its TOSSIM timing noise scrambled, so seeded runs scramble the
    order too.  [salt = 0] is the identity (plain identifier order). *)

val children : int option array -> int array * int array
(** [children parent] is the reverse of a parent array as a compressed
    sparse row table [(offsets, members)]: the row of [p],
    [members.(offsets.(p)) .. members.(offsets.(p + 1) - 1)], lists the
    nodes [v] with [parent.(v) = Some p] in ascending order.  Built in
    O(n) with no per-node lists.
    @raise Invalid_argument if a parent is out of range. *)

val repair :
  ?strong:bool ->
  ?salt:int ->
  Slpdas_wsn.Graph.t ->
  schedule:Schedule.t ->
  parent:int option array ->
  pinned:(int -> bool) ->
  unit
(** [repair g ~schedule ~parent ~pinned] restores the DAS child-before-parent
    property and 2-hop collision freedom after external slot changes, by the
    same decrement rules as [build].  Nodes for which [pinned] holds are
    never modified (used by slot refinement to protect the decoy path).
    Mutates [schedule] in place.

    [pinned] is read once per node, before the first pass, so it must be
    pure and total: an answer that changes later goes unnoticed, and one
    that raises fails the whole repair, even for a node no pass would
    have examined.  Each pass then re-examines only nodes whose own slot,
    a neighbour's, their parent's or a 2-hop neighbour's slot changed
    since they were last examined.  Nodes are reached through their
    parent by a reverse index built from [parent], so any parent array
    of the graph's size is valid, including entries that are not
    neighbours.

    With [strong = false] (default) only the chosen-parent ordering is
    enforced — yielding a {e weak} DAS, the most the refined schedule can
    satisfy: the redirection deliberately places a decoy below nodes whose
    shortest-path parent it is, which strong repair would undo.  [build]
    itself always uses strong repair, so unrefined schedules satisfy Def. 2.
    @raise Failure if no fixpoint is reached within the fuel bound.
    @raise Invalid_argument if [schedule] or [parent] does not cover
    exactly the graph's nodes, or a parent is not a node of the graph. *)
