(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    simulation run, schedule construction and experiment is reproducible from
    a single root seed.  The generator is SplitMix64 (Steele, Lea & Flood,
    OOPSLA 2014): a small, fast, splittable generator with 64-bit state whose
    statistical quality is more than sufficient for Monte-Carlo simulation.

    This module is the {e sole} sanctioned entry point for randomness: calling
    [Stdlib.Random] anywhere outside this file (or [bench/]) is rejected by
    the [random-stdlib] rule of [slp-lint] (run [make lint]), because hidden
    global-state draws would silently break run-to-run reproducibility and
    the engine-equivalence and determinism test suites that depend on it. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a fresh generator from an integer seed.  Two
    generators created from equal seeds produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator that continues [t]'s stream; the
    original is unaffected by draws made on the copy. *)

val split : t -> t
(** [split t] derives a statistically independent child generator and
    advances [t].  Use one child per simulation run so that adding draws to
    one run never perturbs another. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is a uniform float in [\[0, bound)]. *)

val first_float : int -> float -> float
(** [first_float seed bound] is [float (create seed) bound], bit for bit:
    the first float a fresh generator draws.  It builds no generator, so a
    stateless per-(seed) hash costs no allocation beyond its result. *)

val first_bits62 : int -> int
(** [first_bits62 seed] is the low 62 bits of [bits64 (create seed)], a
    non-negative [int], computed without building a generator. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val gaussian : t -> mean:float -> std:float -> float
(** [gaussian t ~mean ~std] draws from a normal distribution using the
    Box–Muller transform. *)

val choose : t -> 'a list -> 'a
(** [choose t xs] picks a uniform element of [xs].
    @raise Invalid_argument if [xs] is empty. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t xs] permutes [xs] in place (Fisher–Yates). *)

val shuffle_list : t -> 'a list -> 'a list
(** [shuffle_list t xs] is a uniformly shuffled copy of [xs]. *)
