(** Fixed-size worker pool over OCaml 5 domains.

    The experiment harness is embarrassingly parallel: every seeded run and
    every per-source verification is independent and fully determined by its
    inputs.  This pool fans such work out across domains while keeping the
    results in submission order, so a parallel map returns exactly what the
    sequential map would — parallelism never changes results, only
    wall-clock.

    A pool of size 1 spawns no domains at all: [map] degenerates to a plain
    sequential [List.map] in the calling domain, guaranteeing bit-for-bit
    identical behaviour to code that never heard of the pool.

    Tasks must be thread-safe with respect to each other (no shared mutable
    state); everything in this repository qualifies because runs are
    parameterised by value (topology, params, seed).  Pools are not
    reentrant: a task must not submit work to the pool executing it. *)

type t

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]: the parallelism the hardware
    supports, used as the default pool size. *)

val size : t -> int
(** Total parallelism, including the calling domain. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] spawns [domains - 1] worker domains (the
    caller's domain is the remaining worker; default {!recommended}), runs
    [f] with that pool and joins the workers afterwards, whether [f]
    returns or raises.  This is the only way to obtain a pool, so no worker
    domain outlives its [with_pool].
    @raise Invalid_argument if [domains < 1]. *)

val map : t -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] is [List.map f xs], computed by all of the pool's
    domains.  Order-preserving and deterministic for pure [f]: the result
    does not depend on the pool size.  Work is handed out in chunks of
    [chunk] items (default: balanced against the pool size) to bound
    synchronisation overhead.  If any application of [f] raises, the first
    exception (in completion order) is re-raised in the caller after the
    remaining chunks are drained.
    @raise Invalid_argument if [chunk < 1] or if called from inside a task
    of the same pool. *)

val map_array : t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Array analogue of {!map}. *)

(** {2 Reusable rounds}

    Barrier-per-window drivers (coupled sharding) submit the {e same} task
    set hundreds of times with only shared state (an [Atomic] window bound)
    changing between submissions.  A {!rounds} handle precomputes the
    chunking and job closure once; each {!run_round} is then a single
    publish-and-drain handshake with no per-call allocation. *)

type 'a rounds
(** A prepared, re-submittable fan-out of one task function over one item
    array. *)

val rounds : t -> ?chunk:int -> ('a -> unit) -> 'a array -> 'a rounds
(** [rounds pool f xs] prepares the round [Array.iter f xs].  [f] must be
    safe to run concurrently on distinct items; shared state it reads that
    changes between rounds must be synchronized (e.g. [Atomic]).  Chunking
    as in {!map}. *)

val run_round : 'a rounds -> unit
(** Execute one round: every item of the handle's array is passed to its
    task function exactly once, and all items complete before the call
    returns (a full barrier).  On a size-1 pool this is a plain sequential
    loop.  If any task raised, the first exception (in completion order) is
    re-raised after the barrier; the handle remains usable.
    @raise Invalid_argument if the pool is already running a map or round. *)

val run_round_prefix : 'a rounds -> int -> unit
(** [run_round_prefix r n] runs the round over only the first [n] items of
    the handle's array.  Drivers whose live task set varies per round (a
    windowed simulation where most cells are idle most windows) overwrite
    the array prefix, then submit just that prefix — same barrier semantics
    as {!run_round}, proportionally fewer chunk claims.
    @raise Invalid_argument if [n] is negative or exceeds the array length,
    or if the pool is already running a map or round. *)
