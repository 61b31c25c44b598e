# Convenience wrappers around dune; see README.md "Reproducing the paper".

.PHONY: build test lint lint-typed bench bench-smoke bench-determinism chaos-smoke scale-smoke couple-smoke serve-smoke attack-smoke pipeline-smoke clean

build:
	dune build @all

test:
	dune runtest

# Project-specific static analysis (see DESIGN.md "Static analysis").
# Exits 1 on any unsuppressed finding, 2 on infrastructure/usage errors.
# The default tier is syntactic: parsetree heuristics, no build needed.
lint:
	dune exec bin/slp_lint.exe -- lib bin bench

# Both tiers: the typed tier loads .cmt files from _build/default (hence
# the @check build first) and adds alias-proof path resolution plus the
# interprocedural analyses (rng-flow, pool-escape, decider-purity).
lint-typed:
	dune build @check
	dune exec bin/slp_lint.exe -- --tier both --sarif _build/slp-lint.sarif lib bin bench

# Full harness: every table/figure of the paper plus ablations (minutes).
bench:
	dune exec bench/main.exe

# Seconds-scale end-to-end pass: centralized path, tiny ensembles.  Useful
# as a smoke test that the whole pipeline (tables, CSV mirrors,
# BENCH_micro.json) still runs.
bench-smoke:
	BENCH_FAST=1 BENCH_RUNS=2 dune exec bench/main.exe

# Determinism check: with BENCH_MICRO=0 (no timing sections) stdout is
# seed-determined, so two full-DES passes at different domain counts must
# diff clean.
bench-determinism:
	BENCH_RUNS=2 BENCH_MICRO=0 BENCH_DOMAINS=1 dune exec bench/main.exe > _build/bench_d1.out
	BENCH_RUNS=2 BENCH_MICRO=0 BENCH_DOMAINS=2 dune exec bench/main.exe > _build/bench_d2.out
	diff -u _build/bench_d1.out _build/bench_d2.out
	@echo "bench stdout byte-identical for BENCH_DOMAINS=1 and 2"

# Seeded fault-injection grid (lib/fault churn workload) plus the
# fault-layer determinism contract: identical (seed, plan) inputs must give
# byte-identical resilience JSON for BENCH_DOMAINS=1 and 2.
chaos-smoke:
	dune exec bin/slp_das_cli.exe -- chaos -d 7 -n 4 --crashes 2
	dune exec bin/slp_das_cli.exe -- chaos -d 7 -n 2 --slp \
	  --fault-plan "crash@500:k=2;revive@625:all" \
	  --domains 1 --resilience-json _build/chaos_d1.json > /dev/null
	dune exec bin/slp_das_cli.exe -- chaos -d 7 -n 2 --slp \
	  --fault-plan "crash@500:k=2;revive@625:all" \
	  --domains 2 --resilience-json _build/chaos_d2.json > /dev/null
	diff -u _build/chaos_d1.json _build/chaos_d2.json
	@echo "chaos resilience JSON byte-identical for --domains 1 and 2"

# Sharded-engine determinism at (bounded) scale: a 101x101 grid's
# observables JSON — schedule facts, attacker verdict, per-cell and merged
# counters — must be byte-identical for --domains 1 and 2.  timeout(1)
# enforces the wall-clock budget; the full 1000x1000 sweep lives in the
# bench scale section (BENCH_SCALE=101,317,1000 make bench).
scale-smoke:
	timeout 120 dune exec bin/slp_das_cli.exe -- scale -d 101 --cells 4 \
	  --domains 1 --json _build/scale_d1.json > /dev/null
	timeout 120 dune exec bin/slp_das_cli.exe -- scale -d 101 --cells 4 \
	  --domains 2 --json _build/scale_d2.json > /dev/null
	diff -u _build/scale_d1.json _build/scale_d2.json
	@echo "scale observables byte-identical for --domains 1 and 2"

# Coupled sharding determinism: a coupled 101x101 run's observables JSON —
# merged engine counters over the cut-edge mailbox/window machinery — must
# be byte-identical to the single-cell run whatever the decomposition
# (--cells 1 vs 4) and wherever the cells execute (--domains 1 vs 2).
couple-smoke:
	timeout 120 dune exec bin/slp_das_cli.exe -- scale -d 101 --couple \
	  --cells 1 --domains 1 --json _build/couple_c1.json > /dev/null
	timeout 120 dune exec bin/slp_das_cli.exe -- scale -d 101 --couple \
	  --cells 4 --domains 1 --json _build/couple_c4_d1.json > /dev/null
	timeout 120 dune exec bin/slp_das_cli.exe -- scale -d 101 --couple \
	  --cells 4 --domains 2 --json _build/couple_c4_d2.json > /dev/null
	diff -u _build/couple_c1.json _build/couple_c4_d1.json
	diff -u _build/couple_c4_d1.json _build/couple_c4_d2.json
	@echo "coupled observables byte-identical across cell and domain counts"

# Verification service determinism: batch answers (JSON lines on stdout)
# must be byte-identical across --domains 1 and 2 on cold caches, and a
# warm rerun over the first run's on-disk cache must reproduce the cold
# output exactly — answers never depend on where they were computed.  A
# query with dim < 2, or any other out-of-range key (r, safety, source,
# mc, an SLP gap), must fail the batch with exit 2 and a line error.
serve-smoke:
	printf 'dim=7 seed=1\ndim=7 seed=1 slp=true sd=2\ndim=9 seed=2 r=2 h=2 m=1 decide=history-avoiding\ndim=7 seed=1\n' \
	  > _build/serve_queries.txt
	rm -rf _build/serve_cache_a _build/serve_cache_b
	dune exec bin/slp_das_cli.exe -- serve _build/serve_queries.txt \
	  --domains 1 --cache-dir _build/serve_cache_a > _build/serve_d1.out
	dune exec bin/slp_das_cli.exe -- serve _build/serve_queries.txt \
	  --domains 2 --cache-dir _build/serve_cache_b > _build/serve_d2.out
	diff -u _build/serve_d1.out _build/serve_d2.out
	dune exec bin/slp_das_cli.exe -- serve _build/serve_queries.txt \
	  --domains 1 --cache-dir _build/serve_cache_a > _build/serve_warm.out
	diff -u _build/serve_d1.out _build/serve_warm.out
	@echo "serve answers byte-identical across domain counts and warm cache"
	printf 'dim=11 seed=1\ndim=1 seed=1\n' > _build/serve_bad_dim.txt
	status=0; dune exec bin/slp_das_cli.exe -- serve _build/serve_bad_dim.txt \
	  > /dev/null 2> _build/serve_bad_dim.err || status=$$?; \
	  test $$status -eq 2 \
	  && grep -q '^line 2: dim must be >= 2, got 1$$' _build/serve_bad_dim.err
	@echo "serve rejects dim < 2 with exit 2 and a line error"
	for case in 'r=0|r must be >= 1, got 0' \
	  'safety=-1|safety must be >= 0, got -1' \
	  'attacker=global mc=64 safety=-1|safety must be >= 0, got -1' \
	  'source=999|source must be a node 0..48 of the 7x7 grid, got 999' \
	  'mc=-3|mc must be >= 0, got -3' \
	  'slp=true gap=0|gap must be >= 1, got 0'; do \
	  printf 'dim=7 seed=1\ndim=7 seed=1 %s\n' "$${case%%|*}" > _build/serve_bad.txt; \
	  status=0; dune exec bin/slp_das_cli.exe -- serve _build/serve_bad.txt \
	    > /dev/null 2> _build/serve_bad.err || status=$$?; \
	  { test $$status -eq 2 \
	    && grep -qxF "line 2: $${case#*|}" _build/serve_bad.err; } \
	    || { echo "serve-smoke: '$${case%%|*}' not rejected"; exit 1; }; \
	done
	@echo "serve rejects out-of-range keys with exit 2 and a line error"

# Adversary-zoo end-to-end: a mixed exhaustive/Monte-Carlo query file
# (every attacker class, one duplicate line for the MC cache) served at one
# and two domains must print byte-identical JSON answer lines, and a warm
# rerun over the first run's disk cache must reproduce the cold output.
# The r = 1 lines take the branch-free single walk of Mc_verify; the r = 2
# and r = 3 coop/sector lines branch and run every trial.
attack-smoke:
	printf 'dim=7 seed=1\ndim=7 seed=1 attacker=global mc=64\ndim=7 seed=2 attacker=coop:3 mc=64\ndim=9 seed=2 attacker=sector-phantom mc=128\ndim=7 seed=1 attacker=local mc=64\ndim=7 seed=1 attacker=global mc=64\n' \
	  > _build/attack_queries.txt
	printf 'dim=9 seed=3 attacker=coop:2 r=2 mc=64\ndim=9 seed=3 attacker=sector-phantom r=3 mc=64\ndim=7 seed=2 slp=true attacker=sector-phantom r=2 m=2 mc=64\ndim=9 seed=1 attacker=coop:3 r=3 h=2 mc=64\ndim=9 seed=2 attacker=local r=2 decide=history-avoiding h=2 m=2 mc=64\n' \
	  >> _build/attack_queries.txt
	rm -rf _build/attack_cache_a _build/attack_cache_b
	dune exec bin/slp_das_cli.exe -- serve _build/attack_queries.txt \
	  --domains 1 --cache-dir _build/attack_cache_a > _build/attack_d1.out
	dune exec bin/slp_das_cli.exe -- serve _build/attack_queries.txt \
	  --domains 2 --cache-dir _build/attack_cache_b > _build/attack_d2.out
	diff -u _build/attack_d1.out _build/attack_d2.out
	dune exec bin/slp_das_cli.exe -- serve _build/attack_queries.txt \
	  --domains 1 --cache-dir _build/attack_cache_a > _build/attack_warm.out
	diff -u _build/attack_d1.out _build/attack_warm.out
	@echo "MC certification byte-identical across domain counts and warm cache"

# Pipeline benchmark end to end: one second of each workload must finish
# with every operation's output passing its exact check.
pipeline-smoke:
	for w in des-fig5 grid-pipeline serve-mix; do \
	  bash bench/pipeline/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 \
	    > _build/pipeline_$$w.out || exit 1; \
	  tail -n 1 _build/pipeline_$$w.out | grep -q '"correct": true' \
	    || { echo "pipeline-smoke: $$w output failed its checks"; exit 1; }; \
	done
	@echo "pipeline workloads ran with every output check passing"

clean:
	dune clean
