(** Undirected communication graphs.

    A WSN is modelled as an undirected graph [G = (V, E)] over dense integer
    node identifiers [0 .. n-1] (paper §III-A: uniform circular communication
    range, so links are symmetric).  The structure is immutable after
    construction; adjacency lists are sorted, which makes iteration order —
    and therefore every algorithm built on top — deterministic. *)

type t

val create : n:int -> (int * int) list -> t
(** [create ~n edges] builds a graph on vertices [0 .. n-1].  Self-loops are
    rejected; duplicate and reversed duplicates of an edge are collapsed.
    Convenient for tests and small ad-hoc graphs; generators producing large
    topologies should use {!of_csr}, which skips the edge list and the
    per-vertex set construction entirely.
    @raise Invalid_argument on a vertex out of range or a self-loop. *)

val of_csr : n:int -> offsets:int array -> targets:int array -> t
(** [of_csr ~n ~offsets ~targets] is the O(n + m) bulk-build path: adjacency
    handed over in compressed sparse row form, the adjacency row of vertex
    [u] being [targets.(offsets.(u)) .. targets.(offsets.(u + 1) - 1)].
    [offsets] must have length [n + 1] with [offsets.(0) = 0] and
    [offsets.(n) = Array.length targets]; every row must be strictly
    increasing (sorted, duplicate-free), self-loop free, and symmetric
    ([v] appears in [u]'s row iff [u] appears in [v]'s).  The result is
    indistinguishable from [create] on the same edge set — same sorted
    adjacency, same iteration order — without materialising an
    [(int * int) list]: a 1000x1000 grid (10⁶ vertices, ~2·10⁶ edges)
    constructs in well under a second.
    @raise Invalid_argument on malformed input. *)

val n : t -> int
(** Number of vertices. *)

val num_edges : t -> int

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] is [true] iff [{u,v}] is an edge.  O(log degree). *)

val neighbours : t -> int -> int array
(** [neighbours g u] is the sorted adjacency array of [u].  The returned
    array is owned by the graph and must not be mutated. *)

val neighbour_list : t -> int -> int list
(** [neighbour_list g u] is [neighbours g u] as a fresh list. *)

val degree : t -> int -> int

val edges : t -> (int * int) list
(** All edges with [u < v], lexicographically sorted. *)

val fold_vertices : (int -> 'a -> 'a) -> t -> 'a -> 'a

val bfs_distances : t -> int -> int array
(** [bfs_distances g src] is the array of hop distances from [src];
    unreachable vertices map to [-1]. *)

val hop_distance : t -> int -> int -> int option
(** [hop_distance g u v] is the length of a shortest path, if any. *)

val is_connected : t -> bool

val reachable_from : t -> int -> excluding:(int -> bool) -> bool array
(** [reachable_from g src ~excluding] marks the vertices reachable from
    [src] through vertices for which [excluding] is false (the source itself
    included only if not excluded).  Used by fault-injection analyses to
    reason about the surviving subnetwork without materialising a
    subgraph. *)

val connected_components : t -> int list list
(** Vertex sets of the connected components, each sorted, ordered by their
    smallest member. *)

val diameter : t -> int
(** Longest shortest path over all pairs; [-1] for a disconnected graph.

    {b Cost warning}: this is an all-pairs BFS — O(n·(n+m)) time — which is
    minutes-to-hours on graphs beyond a few tens of thousands of vertices
    (a 1000x1000 grid would run ~10⁶ BFS passes of ~3·10⁶ steps each).
    Callers reporting topology statistics must gate it on the vertex count;
    the bench and the CLI skip diameter reporting above their thresholds
    rather than call this accidentally. *)

val two_hop_neighbourhood : t -> int -> int list
(** [two_hop_neighbourhood g u] is the set [CG(u)] of the paper (Def. 1): all
    vertices at hop distance 1 or 2 from [u], excluding [u], sorted.  The
    cost depends only on the degrees around [u], never on [n], so
    all-vertices sweeps stay linear in the network size.
    @raise Invalid_argument if [u] is out of range. *)

val two_hop : t -> int array array
(** [two_hop g] is every vertex's 2-hop neighbourhood at once: row [u] is
    [two_hop_neighbourhood g u] as an array.  Built through one scratch
    row, without per-vertex lists — about a millisecond on a 101x101 grid
    — and computed afresh on each call, so loops over every vertex's
    neighbourhood (DAS fixpoints, collision checks) should call it once
    and keep the rows.  The rows are separate small arrays rather than one
    flat table: OCaml 5 allocates blocks over 128 words outside its
    small-object pools, and later small allocations do not reuse that
    memory once it is freed (a flat table per call raised the serve
    benchmark's peak RSS by 16%). *)

val shortest_path_parents : t -> dist:int array -> int -> int list
(** [shortest_path_parents g ~dist u] lists the neighbours of [u] that lie on
    a shortest path from [u] towards the root of [dist] (i.e. neighbours [m]
    with [dist.(m) = dist.(u) - 1]), sorted. *)

val shortest_path : t -> src:int -> dst:int -> int list option
(** [shortest_path g ~src ~dst] is one shortest path [src; ...; dst]
    (lexicographically least among shortest paths), if any. *)

val fingerprint : t -> string
(** A structural digest of the graph — vertex count plus every sorted
    adjacency row — stable across machines and OCaml versions (built on
    {!Slpdas_util.Fnv}, never [Hashtbl.hash]).  Two graphs with the same
    fingerprint are the same labelled graph for any practical purpose, so
    the fingerprint can key persistent verification caches.  Computed once
    and memoized (the structure is immutable); the string starts with a
    ["g1-"] version tag so future encoding changes cannot alias old keys. *)

val pp : Format.formatter -> t -> unit
