// Command pimbench runs the repository's registered benchmarks and appends
// their measurements to in-repo JSON ledgers, so every optimization PR has
// a before/after record against the same workloads.
//
// Usage:
//
//	pimbench list                     # registered benchmarks, one line each
//	pimbench run <name|all> [flags]   # run one benchmark, or every one
//	pimbench diff <a> <b>             # two pimperf result files vs BENCHMARK.json bounds
//
// diff reads two files of pimperf results (captured `bash benchmarks/run.sh`
// output, or lines of BENCH_pimperf.jsonl), prints per workload × end-to-end
// metric the two medians, the relative change and ok/REGRESSED/improved, and
// exits 1 on any regression beyond its bound in ./BENCHMARK.json or any rise
// in failed/attempted.
//
// Benchmarks live in the bench registry (internal/bench): each experiment
// harness registers a named Spec at init time, and this command is a thin
// dispatcher — wiring a new experiment into `pimbench run` means one
// bench.Register call next to the experiment code, never a change here or
// in the Makefile (DESIGN.md §15).
//
// Every ledgered benchmark shares two contracts the registry enforces:
// entries are stamped with a LedgerHeader (host parallelism, shard count, GC
// figures), and a benchmark whose differential gate fails — parallel series
// diverging from sequential, sharded grid from sequential, corpus replay
// regressing — records nothing and exits non-zero.
//
// Run flags:
//
//	-smoke         CI-sized workload: every gate runs, no ledger is written
//	-label s       entry label (e.g. seed, after-solver)
//	-out file      ledger path override (default per benchmark)
//	-shards n      simulation shard count (scaling/tenk/dense4k add a sharded pass)
//	-seed n        faultsearch: search seed
//	-budget n      faultsearch: schedules to evaluate
//	-workers n     faultsearch: evaluation workers (0 = all CPUs)
//	-corpus dir    faultsearch: counterexample corpus to replay first
//	-emit dir      faultsearch: write newly found minimized counterexamples
//	-cpuprofile f  write a CPU profile of the whole run
//	-memprofile f  write a heap profile at clean exit
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"pim/internal/bench"

	// Benchmark registrations: each blank import wires its package's
	// bench.Register calls into the registry.
	_ "pim/internal/experiments"
	_ "pim/internal/faultsearch"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pimbench list | pimbench run <name|all> [-smoke] [flags] | pimbench diff <a> <b>")
	fmt.Fprintf(os.Stderr, "benchmarks: %v\n", bench.Names())
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		for _, name := range bench.Names() {
			spec, _ := bench.Get(name)
			fmt.Printf("%-12s %s\n", name, spec.Summary)
		}
	case "run":
		runCmd(os.Args[2:])
	case "diff":
		if len(os.Args) != 4 {
			usage()
		}
		regressed, err := diffResults(os.Stdout, "BENCHMARK.json", os.Args[2], os.Args[3])
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	default:
		usage()
	}
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	label := fs.String("label", "run", "entry label (e.g. seed, after-solver)")
	smoke := fs.Bool("smoke", false, "CI-sized workload: verify every gate, record nothing")
	out := fs.String("out", "", "ledger file to append to (default per benchmark)")
	shards := fs.Int("shards", 1, "simulation shard count (1 = sequential; sharded runs are gated against the sequential grid)")
	seed := fs.Int64("seed", 1, "faultsearch: search seed (fixed seed => bit-identical schedules, violations, and minimized output)")
	budget := fs.Int("budget", 300, "faultsearch: schedules to evaluate")
	workers := fs.Int("workers", 0, "faultsearch: trial evaluation workers (0 = all CPUs; the report is worker-count invariant)")
	corpus := fs.String("corpus", "scenarios/found", "faultsearch: corpus directory to replay before searching (empty to skip)")
	emit := fs.String("emit", "", "faultsearch: directory to write newly found minimized counterexamples to (empty = report only)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at clean exit to this file")
	// The benchmark name comes first (`pimbench run scaling -smoke`), but
	// flags-first (`pimbench run -smoke scaling`) works too.
	name := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	fs.Parse(args)
	switch {
	case name == "" && fs.NArg() == 1:
		name = fs.Arg(0)
	case name == "" || fs.NArg() != 0:
		usage()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Written on clean exit only: the gate-failure paths os.Exit and
		// deliberately drop the profile with the refused entry.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pimbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pimbench:", err)
			}
		}()
	}

	names := []string{name}
	if name == "all" {
		names = bench.Names()
	}
	for _, name := range names {
		if len(names) > 1 {
			fmt.Printf("=== %s\n", name)
		}
		ctx := &bench.Context{
			Label: *label, Smoke: *smoke, Out: *out, Shards: *shards,
			Seed: *seed, Budget: *budget, Workers: *workers,
			CorpusDir: *corpus, EmitDir: *emit,
			Logf: func(format string, a ...interface{}) {
				fmt.Printf(format+"\n", a...)
			},
		}
		if err := bench.Run(name, ctx); err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pimbench:", err)
	os.Exit(1)
}
