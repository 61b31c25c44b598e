# Convenience wrappers around dune; see README.md "Reproducing the paper".

.PHONY: build test lint lint-typed bench bench-smoke bench-determinism chaos-smoke couple-smoke serve-smoke attack-smoke pipeline-smoke des-smoke das-smoke related-smoke clean

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
# byte-identical resilience JSON for BENCH_DOMAINS=1 and 2.  A --fault-plan
# with a bad time or k, an unknown node or a sink crash must fail before
# any run with a reason (exit 2), never an uncaught exception (exit 125)
# or a silent run.
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
	for case in 'crash@250:node=99999|crash node 99999 out of range' \
	  'crash@250:node=-1|crash node -1 out of range' \
	  'degrade@100:0-99999,0.5|degrade node 99999 out of range' \
	  'crash@250:node=24|cannot crash the sink' \
	  'crash@-5:node=3|time must be finite and >= 0' \
	  'crash@nan:node=3|time must be finite and >= 0' \
	  'crash@inf:node=3|time must be finite and >= 0' \
	  'crash@250:k=-2|target k must be >= 0'; do \
	  status=0; dune exec bin/slp_das_cli.exe -- chaos -d 7 --runs 1 \
	    --fault-plan "$${case%%|*}" > /dev/null 2> _build/chaos_bad.err \
	    || status=$$?; \
	  { test $$status -ne 0 && test $$status -ne 125 \
	    && grep -qF "bad --fault-plan: $${case#*|}" _build/chaos_bad.err; } \
	    || { echo "chaos-smoke: --fault-plan '$${case%%|*}' exited $$status"; exit 1; }; \
	done
	@echo "chaos rejects fault plans the 7x7 grid cannot host before any run"

# Coupled sharding determinism: a coupled 101x101 run's observables JSON —
# merged engine counters over the cut-edge mailbox/window machinery — must
# be byte-identical to the single-cell run whatever the decomposition
# (--cells 1 vs 4 vs 16) and wherever the cells execute (--domains 1 vs 2),
# and to test/cli_golden/scale_101_c4.json, recorded from the 4-cell run
# before radio-isolated sharding was deleted.  Cells of the 1- and 4-cell
# runs lie above the engine's batch cutover (1024 nodes) and batch their
# deliveries; the 16 cells (~638 nodes each) push singleton deliveries, so
# the diff also pins batched = unbatched.
couple-smoke:
	timeout 120 dune exec bin/slp_das_cli.exe -- scale -d 101 \
	  --cells 1 --domains 1 --json _build/couple_c1.json > /dev/null
	timeout 120 dune exec bin/slp_das_cli.exe -- scale -d 101 \
	  --cells 4 --domains 1 --json _build/couple_c4_d1.json > /dev/null
	timeout 120 dune exec bin/slp_das_cli.exe -- scale -d 101 \
	  --cells 4 --domains 2 --json _build/couple_c4_d2.json > /dev/null
	timeout 120 dune exec bin/slp_das_cli.exe -- scale -d 101 \
	  --cells 16 --domains 1 --json _build/couple_c16.json > /dev/null
	diff -u test/cli_golden/scale_101_c4.json _build/couple_c4_d1.json
	diff -u _build/couple_c1.json _build/couple_c4_d1.json
	diff -u _build/couple_c4_d1.json _build/couple_c4_d2.json
	diff -u _build/couple_c1.json _build/couple_c16.json
	@echo "coupled observables byte-identical across cell and domain counts"

# Verification service determinism: batch answers (JSON lines on stdout)
# must be byte-identical across --domains 1 and 2 on cold caches, and a
# warm rerun over the first run's on-disk cache must reproduce the cold
# output exactly — answers never depend on where they were computed.  A
# query with dim < 2, or any other out-of-range key (r, safety, source,
# mc, an SLP gap), must fail the batch with exit 2 and a line error.  The
# same out-of-range values given as flags to a subcommand must be usage
# errors naming the flag (Cmdliner exit 124), never an uncaught exception
# (exit 125) or a silent default.
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
	for case in '-r 0|-r' '--history=-1|--history' '--slp --gap=0|--gap' \
	  '--dim 1|--dim' '--attacker global --mc-trials=-3|--mc-trials'; do \
	  status=0; dune exec bin/slp_das_cli.exe -- verify $${case%%|*} \
	    > /dev/null 2> _build/cli_bad.err || status=$$?; \
	  { test $$status -ne 0 && test $$status -ne 125 \
	    && grep -qF "option '$${case#*|}'" _build/cli_bad.err; } \
	    || { echo "serve-smoke: verify $${case%%|*} exited $$status"; exit 1; }; \
	done
	@echo "verify rejects out-of-range flags with a usage error naming the flag"

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

# DES event counts: one seed-1 11x11 `simulate` run per mode.  Broadcasts,
# deliveries and attacker moves are seed-determined and pinned exactly;
# timer fires must stay below 20,000, because no-op setup rounds park their
# timers (a run that simulates every round fires about 188,500).  These are
# deterministic counts, not timings, so the gate cannot flake.
des-smoke:
	for case in '--slp|4436|15994|10' '|4270|15403|10'; do \
	  mode=$${case%%|*}; rest=$${case#*|}; \
	  dune exec bin/slp_das_cli.exe -- simulate -d 11 $$mode \
	    --events-json _build/des_events.json > /dev/null || exit 1; \
	  count() { sed -n "s/^ *\"$$1\": \([0-9]*\),*$$/\1/p" _build/des_events.json; }; \
	  got="$$(count broadcasts)|$$(count deliveries)|$$(count attacker_moves)"; \
	  test "$$got" = "$$rest" \
	    || { echo "des-smoke: simulate $$mode counts $$got, want $$rest"; exit 1; }; \
	  fires=$$(count timer_fires); \
	  test "$$fires" -lt 20000 \
	    || { echo "des-smoke: simulate $$mode fired $$fires timers (limit 20000)"; exit 1; }; \
	done
	@echo "DES broadcasts, deliveries and attacker moves pinned; timer fires < 20000"

# Seeded DAS schedules at scale: the saved schedule files of seed-1
# `schedule` runs on 101x101 and 317x317, protectionless and SLP-refined,
# must hash to the values recorded before the slot store became unboxed.
# das-oracle compares the builder with the full-sweep fixpoint only up to
# 101x101; this pins the seeded output at 317x317 as well.
das-smoke:
	for case in \
	  '101||02c3bef246fe56118f55d254972cf606a505cd568b7cd6528caaa2416a3adfdd' \
	  '101|--slp|a152e44f9796e100c5e2016a9109ff5517a56c8a3459a34512c1bc1ca9a2ce46' \
	  '317||99a28ea102e6fd8d39a719c3bf18d9aa2638654fe3beaa60608750540242e670' \
	  '317|--slp|a42fbdfb431885e613d1ccf0ce6a292638fe07cdfd367c6e90963b5761a576cb'; do \
	  dim=$${case%%|*}; rest=$${case#*|}; mode=$${rest%%|*}; want=$${rest#*|}; \
	  dune exec bin/slp_das_cli.exe -- schedule -d $$dim --seed 1 $$mode \
	    --save _build/das_smoke.txt > /dev/null || exit 1; \
	  got=$$(sha256sum _build/das_smoke.txt | cut -d ' ' -f 1); \
	  test "$$got" = "$$want" \
	    || { echo "das-smoke: schedule -d $$dim $$mode hashes $$got, want $$want"; exit 1; }; \
	done
	@echo "seeded schedules at 101x101 and 317x317 match their recorded hashes"

# Related-work baselines end to end: the phantom (compass walk), sector
# (PSSPR sector walk) and fake-source subcommands at --dim 7 --runs 4 must
# print exactly the text in test/cli_golden, recorded before the compass
# and sector walks became direction policies of one protocol, at
# --domains 1 and 2.  An out-of-range --sectors, --rate, --runs,
# --domains, --cells or --walk — and chaos --crashes/--detect-after, scale
# --until, tune --budget/--restarts/--max-evals, simulate --trace — must
# be a usage error naming the flag (Cmdliner exit 124), never an uncaught
# exception (exit 125) or a run.
related-smoke:
	for cmd in phantom sector fake; do \
	  for d in 1 2; do \
	    dune exec bin/slp_das_cli.exe -- $$cmd --dim 7 --runs 4 --domains $$d \
	      > _build/related_$$cmd.out || exit 1; \
	    diff -u test/cli_golden/$$cmd.txt _build/related_$$cmd.out || exit 1; \
	  done; \
	done
	@echo "phantom, sector and fake stdout match the pinned text at --domains 1 and 2"
	for case in 'sector --sectors=0|--sectors' 'sector --sectors=-2|--sectors' \
	  'fake --rate=0|--rate' 'fake --rate=-1|--rate' \
	  'phantom --runs=0|--runs' 'fake --runs=0|--runs' 'sector --runs=0|--runs' \
	  'experiment --runs=0|--runs' 'phantom --domains=-1|--domains' \
	  'scale --cells=0|--cells' 'phantom --walk=-1|--walk' \
	  'sector --walk=-1|--walk' 'chaos --crashes=-1|--crashes' \
	  'chaos --detect-after=-1|--detect-after' 'scale --until=-1|--until' \
	  'tune --budget=-1|--budget' 'tune --restarts=-1|--restarts' \
	  'tune --max-evals=0|--max-evals' 'simulate --trace=-1|--trace'; do \
	  status=0; dune exec bin/slp_das_cli.exe -- $${case%%|*} \
	    > /dev/null 2> _build/related_bad.err || status=$$?; \
	  { test $$status -ne 0 && test $$status -ne 125 \
	    && grep -qF "option '$${case#*|}'" _build/related_bad.err; } \
	    || { echo "related-smoke: $${case%%|*} exited $$status"; exit 1; }; \
	done
	@echo "out-of-range related-work flags are usage errors naming the flag"

clean:
	dune clean
