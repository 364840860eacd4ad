GO ?= go

.PHONY: check build vet test race corpus update-goldens bench-smoke bench-driver engine-loc profile bench fig2-ledger dataplane-ledger recovery-ledger scale-ledger tenk-ledger ctrlplane-ledger stateplane-ledger faultsearch-ledger

# check is the full gate: vet, build, race-enabled tests, the self-verifying
# scenario corpus under the full differential matrix, the benchmark smoke
# pass (every registered benchmark plus the equivalence/allocation pins), and
# the frozen repository-benchmark driver built and smoke-run against this tree.
check: vet build race corpus bench-smoke bench-driver

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# corpus runs every scenarios/**/*.pim — the found/ counterexamples included —
# under the 5-cell differential matrix (ref+fast paths, heap+wheel schedulers,
# 1 and 2 shards, flat and map MFIB stores) and checks each run against the
# scenario's embedded golden digest (DESIGN.md §15).
corpus:
	$(GO) run ./cmd/pimscript -corpus scenarios

# update-goldens regenerates every scenario's embedded golden section after an
# intended behavior change. Review the diff: a digest change is a claim that
# the simulation's observable behavior changed on purpose.
update-goldens:
	$(GO) run ./cmd/pimscript -update scenarios

# bench-smoke is the single benchmark smoke gate. It runs every registered
# benchmark once at smoke size through the shared refuse-to-record machinery
# (`pimbench run all -smoke` — a new benchmark registered via bench.Register
# joins this gate with no Makefile edit), repeats the scaling sweep with 4
# shards to exercise the sharded-execution gate (DESIGN.md §12), replays a
# fault scenario under the online invariant checker (§10), pins the pooled
# frame path (equivalence + poison-on-release, §13) and the per-engine
# AllocsPerRun counts, runs the focused race passes the old per-subsystem
# smokes carried, and compiles-and-runs the perf-sensitive microbenchmarks so
# a regression that breaks them (not just slows them) is caught by `make check`.
bench-smoke:
	$(GO) run ./cmd/pimbench run all -smoke
	$(GO) run ./cmd/pimbench run scaling -smoke -shards 4
	$(GO) run ./cmd/pimscript -check scenarios/rpfailover.pim
	$(GO) test -run 'TestScenarios(FramePoolEquivalence|PoisonedPool)' -count=1 ./internal/script/
	$(GO) test -run 'ZeroAlloc' -count=1 ./internal/core/ ./internal/pimdm/ ./internal/dvmrp/ ./internal/cbt/ ./internal/mospf/ ./internal/igmp/
	$(GO) test -run 'TestFlatMapStoreLockstep' -count=1 ./internal/mfib/
	$(GO) test -race -count=1 ./internal/telemetry/ ./internal/script/ ./internal/netsim/... ./internal/parallel/... ./internal/faultsearch/ ./internal/faults/ ./internal/mfib/
	$(GO) test -run XXX -bench 'BenchmarkDijkstraReuse|BenchmarkLANDeliver|BenchmarkScheduler(Churn|Dense)' -benchtime 10x ./internal/topology/ ./internal/netsim/
	$(GO) test -run XXX -bench 'BenchmarkEngineFig2a' -benchtime 1x .
	$(GO) test -run XXX -bench 'BenchmarkLPM(Trie|Linear)256' -benchtime 10x ./internal/unicast/
	$(GO) test -run XXX -bench 'BenchmarkRPF(CacheHit|Uncached)' -benchtime 10x ./internal/rpf/
	$(GO) test -run XXX -bench 'BenchmarkFanout(Compiled|Reference)' -benchtime 10x ./internal/mfib/
	$(GO) test -run XXX -bench 'BenchmarkDataplane(Shared|Dense)(Fast|Ref)' -benchtime 1x ./internal/experiments/

# bench-driver proves the frozen benchmark driver still compiles and runs
# against this tree. benchmarks/pimperf is its own module importing
# pim/internal/..., so the root `./...` never builds it and an internal
# refactor can break it silently; nothing under benchmarks/ is edited here.
bench-driver:
	cd benchmarks/pimperf && $(GO) vet ./... && $(GO) test ./...
	bash benchmarks/run.sh -smoke

# engine-loc prints the non-test, non-blank, non-comment Go line count of the
# protocol engines and their shared chassis — the yardstick for ROADMAP aim 2.
engine-loc:
	@find $(addprefix internal/,engine core pimdm dvmrp cbt mospf igmp) -name '*.go' ! -name '*_test.go' \
		| xargs cat | grep -v '^[[:space:]]*$$' | grep -vc '^[[:space:]]*//'

# bench is the full metric-reporting benchmark suite (EXPERIMENTS.md).
bench:
	$(GO) test -bench . -benchmem ./...

# profile captures CPU and heap profiles of a pimbench run for pprof; set
# PROFILE_ARGS to profile a different benchmark (default: the CI-sized
# control-plane churn benchmark).
profile:
	$(GO) run ./cmd/pimbench run $(or $(PROFILE_ARGS),ctrlplane -smoke) -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof; inspect with: $(GO) tool pprof cpu.pprof"

# The *-ledger targets run a benchmark at full size and append a
# machine-readable entry to its ledger (see EXPERIMENTS.md). Recording is
# refused if the benchmark's differential gate fails.
fig2-ledger:
	$(GO) run ./cmd/pimbench run fig2 -label $(or $(LABEL),run)

dataplane-ledger:
	$(GO) run ./cmd/pimbench run dataplane -label $(or $(LABEL),run)

recovery-ledger:
	$(GO) run ./cmd/pimbench run recovery -label $(or $(LABEL),run)

# scale-ledger appends heap and wheel entries for the large-internet scaling
# sweeps; set SHARDS to also record a sharded pass gated against the
# sequential grid.
scale-ledger:
	$(GO) run ./cmd/pimbench run scaling -label $(or $(LABEL),run) -shards $(or $(SHARDS),1)

tenk-ledger:
	$(GO) run ./cmd/pimbench run tenk -label $(or $(LABEL),run) -shards $(or $(SHARDS),4)

ctrlplane-ledger:
	$(GO) run ./cmd/pimbench run ctrlplane -label $(or $(LABEL),run)

# stateplane-ledger records the MFIB footprint/walk comparison (flat arena
# store vs reference map store); recording is refused unless the two stores
# produce observably identical runs (DESIGN.md §16).
stateplane-ledger:
	$(GO) run ./cmd/pimbench run stateplane -label $(or $(LABEL),run)

# faultsearch-ledger runs the full-budget fault-schedule search and adds any
# newly found minimized counterexample to the scenarios/found/ corpus (run
# `make update-goldens` afterwards to embed the new files' digests).
faultsearch-ledger:
	$(GO) run ./cmd/pimbench run faultsearch -seed $(or $(SEED),1) -budget $(or $(BUDGET),600) -emit scenarios/found -label $(or $(LABEL),run)
