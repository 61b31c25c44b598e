(** Seeded Monte-Carlo δ-SLP certification with Wilson-interval bounds.

    Where the exhaustive {!Slpdas_core.Verifier} explodes (global and
    cooperative attacker state spaces), [certify] estimates the capture
    probability: [trials] seeded random walks per query, each resolving the
    attacker class's nondeterminism uniformly, with a Wilson score interval
    (z = 1.96) around the capture frequency.

    A [Model.Local] trial walks exactly {!Slpdas_core.Verifier.successors},
    the exhaustive search's transition relation — so exhaustive [Safe]
    implies zero Monte-Carlo captures, and a deterministic decider makes the
    two agree exactly (the QCheck differential in [test_attack.ml]).

    Deterministic: trial [i] draws only from a generator derived from
    [(seed, i)], created inside the trial, so the result is byte-identical
    at any [?domains] value — provided the walk reads no state shared
    between trials.  A [Local] decider that captures an {!Slpdas_util.Rng}
    (e.g. [Attacker.epsilon_greedy rng]) shares that one generator across
    every trial and every domain: its answers are reproducible only at
    [~domains:1].

    Branch-free short-circuit: a trial reads its generator only where it
    chooses among >= 2 candidates.  [certify] runs trial 0 first; if it
    never chose among >= 2, every trial walks the same path (induction on
    steps), so the result is [trials] copies of trial 0 — the same
    [captures], [min_periods] and Wilson floats as walking them all.  This
    covers every class at r = 1, and [Global] always.  For [Local] it fires
    only when [attacker.decide] is physically one of
    {!Slpdas_core.Attacker.lowest_slot},
    {!Slpdas_core.Attacker.lowest_slot_avoiding_history} or
    {!Slpdas_core.Attacker.second_lowest} (the pure deciders
    [Query.decide_fn] hands out); any other decider runs every trial.
    When trial 0 did branch, trials [1 .. trials - 1] run as usual and
    trial 0's outcome is reused. *)

type spec = {
  cls : Model.cls;
  attacker : Slpdas_core.Attacker.params;
      (** (R, H, M) budget and start; the decider is consulted only by
          [Local] trials *)
  trials : int;  (** number of walks, [>= 1] *)
  seed : int;  (** root seed; also fixes the [Coop] placement *)
}

type result = {
  trials : int;
  captures : int;
  min_periods : int option;
      (** earliest capture period over all capturing trials *)
  p_hat : float;  (** capture frequency [captures / trials] *)
  wilson_low : float;  (** 95% Wilson lower bound on capture probability *)
  wilson_high : float;  (** 95% Wilson upper bound *)
}

val make_result : trials:int -> captures:int -> min_periods:int option -> result
(** Recompute the derived fields from the integer triple (used by the serve
    codec so cached answers reconstruct bit-equal floats). *)

val certify :
  ?domains:int ->
  spec ->
  Slpdas_wsn.Graph.t ->
  Slpdas_core.Schedule.t ->
  safety_period:int ->
  source:int ->
  result
(** Run the trials ([?domains] defaults to 1 — sequential, safe inside an
    outer {!Slpdas_util.Pool} fan-out such as [Batch.run_many_mc]).  Trial
    0 always runs first in the calling domain; the pool, if any, only runs
    trials [1 ..] of a branching certification.
    @raise Invalid_argument if [trials < 1] or [safety_period < 0]. *)
