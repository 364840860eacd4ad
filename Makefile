GO ?= go

.PHONY: check fmt build vet test race fuzz-smoke corpus update-goldens bench-smoke bench-driver bench-record loc profile bench fig2-ledger recovery-ledger scale-ledger tenk-ledger faultsearch-ledger

# check is the full gate: formatting, vet, build, race-enabled tests, a short
# mutating pass over every native fuzz target, the
# self-verifying scenario corpus, the benchmark smoke
# pass (every registered benchmark plus the allocation pins), and the frozen
# repository-benchmark driver built and smoke-run against this tree.
check: fmt vet build race fuzz-smoke corpus bench-smoke bench-driver

# fmt fails on any file gofmt would rewrite (the frozen benchmarks/ module is
# not ours to format).
fmt:
	@test -z "$$(gofmt -l . | grep -v '^benchmarks/')" || { gofmt -l . | grep -v '^benchmarks/'; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz-smoke gives each native fuzz target — the .pim parser and its golden
# round trip, and every wire decoder — a fixed 3 s of real mutation. `test` and
# `race` only replay the committed seed corpora; this is the step that asserts
# "survives hostile bytes" (ROADMAP aim 3) with bytes nobody wrote down. A
# crasher is saved under the package's testdata/fuzz/ — commit it with the fix.
FUZZ_TARGETS = script:FuzzParse script:FuzzComposeParse packet:FuzzUnmarshal packet:FuzzChecksum pimmsg:FuzzOpen \
	igmp:FuzzUnmarshalInto cbt:FuzzUnmarshalInto dvmrp:FuzzUnmarshalInto mospf:FuzzMembershipLSAUnmarshal \
	unicast:FuzzLSAUnmarshal unicast:FuzzDVUnmarshal
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -run XXX -fuzz "^$${t#*:}\$$" -fuzztime 3s ./internal/$${t%%:*}/ || exit 1; \
	done

# corpus runs every scenarios/**/*.pim — the found/ counterexamples and the
# baselines/ CBT and MOSPF scenarios included — under the invariant checker,
# and checks each run against the scenario's embedded golden digest
# (DESIGN.md §15).
corpus:
	$(GO) run ./cmd/pimscript -corpus scenarios

# update-goldens regenerates every golden in the tree after an intended
# behavior change: each scenario's embedded golden section, the rpfailover
# telemetry dump, the corpus cross-product's matrix.golden (its hand-written
# `defect` lines are kept, never written), and the recovery matrix and
# experiment drivers' testdata goldens. Review the diff: a digest change is a
# claim that the simulation's observable behavior changed on purpose.
update-goldens:
	$(GO) run ./cmd/pimscript -update $$(find scenarios -name '*.pim' | sort)
	$(GO) test ./internal/script/ -run 'TestTelemetryGoldenDump|TestCorpusMatrix' -update
	$(GO) test ./internal/experiments/ -run 'TestRecoveryMatrix|TestDriversGolden' -update

# bench-smoke is the single benchmark smoke gate. It runs every registered
# benchmark once at smoke size through the shared refuse-to-record machinery
# (`pimbench run all -smoke` — a new benchmark registered via bench.Register
# joins this gate with no Makefile edit), replays a fault scenario under the
# online invariant checker (§10), pins the borrowed-frame contract (poison-on-release, §13), the per-engine
# AllocsPerRun counts — control refresh at 0, one data packet through one
# forwarding router of each engine at exactly the Forwarded header copy (§20)
# — the per-router footprint pins (one shared RP table per deployment, a
# node's nine-slot demux, a 32-byte MFIB oif, a 104-byte MFIB entry in a
# 13-page arena slab, a 24-byte RPF cache cell, a 48-byte in-flight frame,
# one per-call scratch and one entry arena per
# simulation, each collected with it; §7, §8, §13, §16), a
# warm unicast solve at exactly its parent array (§18), and the
# arena-vs-map-model lockstep over two tables sharing one arena (§16),
# holds the lazy unicast oracle to its eager reference under the race
# detector (§18),
# prices one query interval of the §4 member-existence exchange with and
# without a border (§19: the second must report 0 messages),
# runs the focused race passes the old per-subsystem smokes carried, and
# compiles-and-runs the perf-sensitive microbenchmarks — each fast
# implementation next to its unit-test reference — so a regression that breaks
# them (not just slows them) is caught by `make check`.
bench-smoke:
	$(GO) run ./cmd/pimbench run all -smoke
	$(GO) run ./cmd/pimscript -check scenarios/rpfailover.pim
	$(GO) test -run 'TestScenariosPoisonedPool' -count=1 ./internal/script/
	$(GO) test -run 'ZeroAlloc|Footprint' -count=1 ./internal/engine/ ./internal/core/ ./internal/mfib/ ./internal/netsim/ ./internal/pimdm/ ./internal/dvmrp/ ./internal/cbt/ ./internal/mospf/ ./internal/igmp/ ./internal/scenario/ ./internal/unicast/ ./internal/rpf/
	$(GO) test -run 'TestFlatMapStoreLockstep' -count=1 ./internal/mfib/
	$(GO) test -race -count=1 -run 'TestOracle' ./internal/unicast/
	$(GO) test -race -count=1 ./internal/telemetry/ ./internal/script/ ./internal/netsim/... ./internal/parallel/... ./internal/faultsearch/ ./internal/faults/ ./internal/mfib/
	$(GO) test -run XXX -bench 'BenchmarkDijkstraReuse|BenchmarkLANDeliver|BenchmarkScheduler(Churn|Dense)|BenchmarkDenseBatch(Runs|Reference)|BenchmarkRunSort' -benchtime 10x ./internal/topology/ ./internal/netsim/
	$(GO) test -run XXX -bench 'BenchmarkChecksum(Wide|Reference)' -benchtime 10x ./internal/packet/
	$(GO) test -run XXX -bench 'BenchmarkEngineFig2a' -benchtime 1x .
	$(GO) test -run XXX -bench 'BenchmarkLPM(Trie|Linear)256' -benchtime 10x ./internal/unicast/
	$(GO) test -run XXX -bench 'BenchmarkOracle(FirstLookups|LinkFlap)1024' -benchtime 3x -benchmem ./internal/unicast/
	$(GO) test -run XXX -bench 'BenchmarkLSConverge' -benchtime 1x -benchmem ./internal/unicast/
	$(GO) test -run XXX -bench 'BenchmarkRPF(CacheHit|Uncached)' -benchtime 10x ./internal/rpf/
	$(GO) test -run XXX -bench 'BenchmarkMemberAdRegion256' -benchtime 3x -benchmem ./internal/pimdm/
	$(GO) test -run XXX -bench 'BenchmarkFanout$$|BenchmarkGetMiss(Flat|Reference)' -benchtime 10x ./internal/mfib/
	$(GO) test -run XXX -bench 'BenchmarkCBTFanout' -benchtime 10x -benchmem ./internal/cbt/

# bench-driver proves the frozen benchmark driver still compiles and runs
# against this tree. benchmarks/pimperf is its own module importing
# pim/internal/..., so the root `./...` never builds it and an internal
# refactor can break it silently; nothing under benchmarks/ is edited here.
bench-driver:
	cd benchmarks/pimperf && $(GO) vet ./... && $(GO) test ./...
	bash benchmarks/run.sh -smoke

# loc prints the non-test, non-blank, non-comment Go line count of the whole
# program (everything outside the frozen benchmarks/ module) — the yardstick
# for ROADMAP aim 2. DIRS narrows it, e.g. the protocol engines and their
# shared chassis: make loc DIRS="internal/engine internal/core internal/pimdm internal/dvmrp internal/cbt internal/mospf internal/igmp"
loc:
	@find $(or $(DIRS),.) -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' ! -path './.bench_build/*' \
		| xargs cat | grep -v '^[[:space:]]*$$' | grep -vc '^[[:space:]]*//'

# bench-record runs the repository benchmark's five workloads (BENCHMARK.json)
# on revision BASE and on this working tree in N pairs each, in ABBA order
# (`pimbench pairs`: base first, then head first, so a drift over the session
# falls on both sides alike), and appends each side's median row, labelled
# LABEL-base and LABEL-head, to BENCH_pimperf.jsonl — the single PR-to-PR
# trajectory file, whose one writer is `pimbench pairs -record`. A working
# tree with changes other than BENCH_pimperf.jsonl is stamped <hash>+worktree.
# Set TMPDIR to keep BASE's exported tree and build cache off a small /tmp.
# Compare two labels, or any two captured run.sh outputs, with
#   go run ./cmd/pimbench diff <a> <b>
# which exits non-zero on a regression beyond a BENCHMARK.json bound.
N ?= 3
bench-record:
	@test -n "$(LABEL)" && test -n "$(BASE)" || { echo "usage: make bench-record LABEL=<name> BASE=<rev> [N=3]"; exit 2; }
	$(GO) run ./cmd/pimbench pairs -base $(BASE) -n $(N) -record $(LABEL)

# bench is the full metric-reporting benchmark suite (EXPERIMENTS.md).
bench:
	$(GO) test -bench . -benchmem ./...

# profile captures CPU and heap profiles of a pimbench run for pprof; set
# PROFILE_ARGS to profile a different benchmark (default: the CI-sized
# scaling sweeps).
profile:
	$(GO) run ./cmd/pimbench run $(or $(PROFILE_ARGS),scaling -smoke) -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof; inspect with: $(GO) tool pprof cpu.pprof"

# The *-ledger targets run a benchmark at full size and append a
# machine-readable entry to its ledger (see EXPERIMENTS.md). Recording is
# refused if the benchmark's differential gate fails.
fig2-ledger:
	$(GO) run ./cmd/pimbench run fig2 -label $(or $(LABEL),run)

recovery-ledger:
	$(GO) run ./cmd/pimbench run recovery -label $(or $(LABEL),run)

# scale-ledger appends the large-internet scaling sweeps, tenk-ledger the
# 10 000-router size cell.
scale-ledger:
	$(GO) run ./cmd/pimbench run scaling -label $(or $(LABEL),run)

tenk-ledger:
	$(GO) run ./cmd/pimbench run tenk -label $(or $(LABEL),run)

# faultsearch-ledger runs the full-budget fault-schedule search and adds any
# newly found minimized counterexample to the scenarios/found/ corpus (run
# `make update-goldens` afterwards to embed the new files' digests).
faultsearch-ledger:
	$(GO) run ./cmd/pimbench run faultsearch -seed $(or $(SEED),1) -budget $(or $(BUDGET),600) -emit scenarios/found -label $(or $(LABEL),run)
