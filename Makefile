# Convenience entry points; dune is the real build system.

QCHECK_SEED ?= 20260805

.PHONY: all build test lint baseline lint-baseline check bench bench-sched bench-placement bench-obs bench-lower bench-fuse bench-serve bench-e2e bench-e2e-compare bench-e2e-ab clean

all: build

build:
	dune build @all

test:
	dune runtest

# Static analysis over the example programs: `lmc analyze` exits
# nonzero on any error-severity finding (deadlocking graphs, provably
# out-of-bounds accesses), so a bad example fails the build.
lint: build
	@for f in examples/lime/*.lime; do \
	  echo "== lmc analyze $$f"; \
	  dune exec bin/lmc.exe -- analyze $$f || exit 1; \
	done

# One `lmc analyze --json` block per analyzable target — every example
# program and every workload in the catalog — each under a `== target`
# header. Shared by `baseline` (regenerate the checked-in snapshot)
# and `lint-baseline` (diff against it).
define regen_baseline
for f in examples/lime/*.lime; do \
  echo "== $$f"; \
  dune exec bin/lmc.exe -- analyze --json $$f || exit 1; \
done; \
for w in $$(dune exec bin/lmc.exe -- workloads | awk '{print $$1}'); do \
  echo "== $$w"; \
  dune exec bin/lmc.exe -- analyze --json $$w || exit 1; \
done
endef

# Regenerate the checked-in analysis baseline. Run this (and commit
# the result) whenever a diagnostic legitimately changes.
baseline: build
	@{ $(regen_baseline); } > test/analyze.baseline
	@echo "wrote test/analyze.baseline"

# Fail if the analyses drift from the checked-in baseline: a proof
# that regresses to Unknown, a new error, or any diagnostic churn
# shows up as a diff here before it shows up in a kernel.
lint-baseline: build
	@tmp=$$(mktemp) && \
	{ $(regen_baseline); } > $$tmp && \
	if diff -u test/analyze.baseline $$tmp; then rm -f $$tmp; else \
	  rm -f $$tmp; \
	  echo "analysis diagnostics drifted from test/analyze.baseline;"; \
	  echo "if intentional, regenerate with 'make baseline' and commit."; \
	  exit 1; \
	fi

# The full gate: build everything, run the whole suite (unit, property,
# cram), lint the examples, diff the analysis baseline, then re-run
# the differential fault-tolerance suite — including its `Slow`
# workload x policy x schedule matrix — under a fixed QCheck seed so
# the randomized schedules are reproducible.
check: build test lint lint-baseline bench-sched bench-placement bench-obs bench-lower bench-fuse bench-serve
	QCHECK_SEED=$(QCHECK_SEED) dune exec test/test_main.exe -- test differential -e

bench:
	dune exec bench/main.exe

# Steady-state vs round-robin scheduling regression gate: writes
# BENCH_sched.json and fails if any steady run blocks more than its
# round-robin counterpart (or the outputs diverge).
bench-sched: build
	dune exec bench/sched.exe -- BENCH_sched.json

# Profile-guided placement regression gate: writes
# BENCH_placement.json and fails if the calibrated planner ever models
# slower than the static Prefer_accelerators default (or the outputs
# diverge, or dsp_chain fails to improve strictly).
bench-placement: build
	dune exec bench/placement_bench.exe -- BENCH_placement.json

# Observability regression gate: writes BENCH_obs.json and fails if
# the disabled-tracing emission cost implies more than 5% overhead on
# an untraced dsp_chain run, or if trace attribution classifies less
# than 99% of wall time into the named buckets.
bench-obs: build
	dune exec bench/observe_bench.exe -- BENCH_obs.json

# Map/reduce lowering regression gate: writes BENCH_lower.json and
# fails if any lowered run diverges from the legacy whole-array
# dispatch, models more than 5% slower than it, or if fewer than three
# Gpu_map workloads plan the GPU with a predicted speedup over
# bytecode.
bench-lower: build
	dune exec bench/lower_bench.exe -- BENCH_lower.json

# Cross-filter fusion regression gate: writes BENCH_fuse.json and
# fails if any fused run's output diverges from the per-stage run, if
# fusion ever models slower than per-stage placement, or if the
# calibrated planner stops placing dsp_chain's fused segment on an
# accelerator strictly faster than the best native placement.
bench-fuse: build
	dune exec bench/fuse_bench.exe -- BENCH_fuse.json

# Multi-tenant serving regression gate: writes BENCH_serve.json and
# fails if a contended 3-tenant load's WDRR device shares drift more
# than 15% from the tenant weights, if draining over the shared
# device pool stops beating single-device serialization by 1.1x, or
# if any served job's output diverges from a solo `lmc run`.
bench-serve: build
	dune exec bench/serve_bench.exe -- BENCH_serve.json

# End-to-end A/B (bench/e2e/README.md): `make bench-e2e OUT=dir` runs
# every BENCHMARK.json workload into dir/, once per seed in SEEDS;
# `make bench-e2e-compare A=dir B=dir` gives a verdict per (metric,
# workload) and fails if B is worse than A.
SEEDS ?= 1
E2E_WORKLOADS = jvm_kernels gpu_offload stream_pipelines serve_mix

bench-e2e: build
	@test -n "$(OUT)" || { echo "usage: make bench-e2e OUT=dir [SEEDS='1 2']"; exit 2; }
	@mkdir -p $(OUT)
	@for s in $(SEEDS); do for w in $(E2E_WORKLOADS); do \
	  echo "== $$w seed $$s"; \
	  dune exec --display=quiet bench/e2e/e2e.exe -- --workload $$w \
	    --seed $$s --json $(OUT)/$$w.$$s.json > /dev/null || exit 1; \
	done; done

bench-e2e-compare: build
	@test -n "$(A)" && test -n "$(B)" || { echo "usage: make bench-e2e-compare A=dir B=dir"; exit 2; }
	dune exec --display=quiet bench/e2e/e2e.exe -- compare $(A)/*.json -- $(B)/*.json

# Paired A/B of one workload between two checkouts of the repository:
# `make bench-e2e-ab A=dir B=dir W=workload OUT=dir [PAIRS=10] [SEED=1]`
# builds both, runs each PAIRS times, alternating and swapping which
# side goes first in every pair so a slow phase of the machine falls on
# both, writes OUT/a/*.json and OUT/b/*.json, and ends with `compare`.
PAIRS ?= 10
SEED ?= 1

bench-e2e-ab: build
	@test -n "$(A)" && test -n "$(B)" && test -n "$(W)" && test -n "$(OUT)" || \
	  { echo "usage: make bench-e2e-ab A=dir B=dir W=workload OUT=dir [PAIRS=10] [SEED=1]"; exit 2; }
	dune build --root $(A) ./bench/e2e/e2e.exe
	dune build --root $(B) ./bench/e2e/e2e.exe
	@mkdir -p $(OUT)/a $(OUT)/b
	@out=$$(cd $(OUT) && pwd); \
	for i in $$(seq 1 $(PAIRS)); do \
	  if [ $$((i % 2)) = 1 ]; then order="a b"; else order="b a"; fi; \
	  for side in $$order; do \
	    if [ $$side = a ]; then dir=$(A); else dir=$(B); fi; \
	    echo "== pair $$i: $$side ($$dir)"; \
	    (cd $$dir && ./_build/default/bench/e2e/e2e.exe --workload $(W) \
	      --seed $(SEED) --json $$out/$$side/$(W).$(SEED).$$i.json > /dev/null) || exit 1; \
	  done; \
	done
	dune exec --display=quiet bench/e2e/e2e.exe -- compare $(OUT)/a/*.json -- $(OUT)/b/*.json

clean:
	dune clean
