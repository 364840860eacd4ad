// Package bench is the benchmark registry behind cmd/pimbench. Every
// experiment harness registers one named Spec at package-init time, and
// `pimbench run <name|all>` dispatches through the registry — so wiring a
// new benchmark means writing one Register call next to the experiment
// code, never touching the command or the Makefile (DESIGN.md §15).
//
// The registry owns the two invariants every ledgered benchmark shares:
//
//   - the refuse-to-record gate: a Spec.Run that returns an error (its
//     differential gate failed, its corpus replay regressed) records
//     nothing — queued entries are dropped, the error propagates;
//   - the ledger protocol: entries queued with Context.Append are flushed
//     to a single JSON-array ledger file only after Run returns nil, each
//     stamped with a LedgerHeader so recorded numbers are self-describing.
//
// Smoke runs (Context.Smoke) execute the CI-sized workload and enforce the
// same gates, but never write a ledger regardless of what Run queued.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"pim/internal/parallel"
)

// LedgerHeader is the host/run metadata stamped on every ledger entry of
// every pimbench ledger, so recorded numbers are self-describing: which
// host parallelism, which shard count, and which worker-pool width produced
// them. Context.Header fills it for all writers.
type LedgerHeader struct {
	Label     string `json:"label"`
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs is runtime.GOMAXPROCS(0) — the scheduling width actually
	// available, which bounds any speedup a sharded or worker-fanned run
	// can show on this host.
	GoMaxProcs int `json:"go_max_procs"`
	// Shards is the simulation shard count in effect (1 = sequential).
	Shards int `json:"shards"`
	// Workers is the experiment worker-pool width (trial fan-out).
	Workers int `json:"workers"`
	// GC figures at stamp time (i.e. after the measured work): cumulative
	// collection count, total stop-the-world pause, and live heap. They make
	// every ledger's numbers interpretable as "how hard was the collector
	// working when this was recorded".
	NumGC          uint32 `json:"num_gc"`
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
}

// Context carries one invocation's knobs into a benchmark and collects the
// ledger entries it produces. The flag surface of cmd/pimbench maps onto
// these fields; benchmarks read only what they need.
type Context struct {
	// Label tags the ledger entries (e.g. "seed", "after-solver").
	Label string
	// Smoke selects the CI-sized workload: the gates run, nothing records.
	Smoke bool
	// Out overrides the Spec's default ledger path ("" = use Spec.Ledger).
	// For benchmarks that write a report file instead of a ledger
	// (telemetry), it is the report path.
	Out string
	// Shards is the requested simulation shard count (1 = sequential).
	Shards int
	// Seed, Budget, Workers parameterize search-style benchmarks.
	Seed    int64
	Budget  int
	Workers int
	// CorpusDir is the counterexample corpus to replay before a fault
	// search ("" = skip); EmitDir receives newly found counterexamples.
	CorpusDir string
	EmitDir   string
	// Logf receives human progress lines (nil = silent).
	Logf func(format string, a ...interface{})

	entries []any
}

// Printf logs a progress line through Logf, if set.
func (c *Context) Printf(format string, a ...interface{}) {
	if c.Logf != nil {
		c.Logf(format, a...)
	}
}

// Header stamps a ledger header labelled Label+suffix for the current
// process and the context's shard and worker counts.
func (c *Context) Header(suffix string) LedgerHeader {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return LedgerHeader{
		Label:          c.Label + suffix,
		Timestamp:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		Shards:         max(c.Shards, 1),
		Workers:        parallel.Workers(c.Workers),
		NumGC:          ms.NumGC,
		GCPauseTotalNs: ms.PauseTotalNs,
		HeapAllocBytes: ms.HeapAlloc,
	}
}

// Append queues one ledger entry. Entries are written only if the
// benchmark's Run returns nil and the run is not a smoke run.
func (c *Context) Append(entry any) { c.entries = append(c.entries, entry) }

// Spec is one registered benchmark.
type Spec struct {
	// Summary is the one-line description `pimbench list` prints.
	Summary string
	// Ledger is the default ledger file entries append to ("" = the
	// benchmark writes no ledger).
	Ledger string
	// Run executes the benchmark: measure, print, gate, and queue entries
	// via Context.Append. Returning an error refuses the record — nothing
	// queued is written — and fails the invocation.
	Run func(*Context) error
}

var registry = map[string]Spec{}

// Register adds a named benchmark. It panics on a duplicate or empty name
// or a nil Run — registration bugs are programmer errors caught at init.
func Register(name string, s Spec) {
	if name == "" || s.Run == nil {
		panic("bench: Register needs a name and a Run func")
	}
	if _, dup := registry[name]; dup {
		panic("bench: duplicate benchmark " + name)
	}
	registry[name] = s
}

// Names lists the registered benchmarks, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns a registered Spec.
func Get(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Run dispatches one benchmark by name: execute its Spec.Run, and — unless
// it errored, the run is smoke, or nothing was queued — flush the queued
// entries to the ledger (ctx.Out, defaulting to Spec.Ledger).
func Run(name string, ctx *Context) error {
	spec, ok := registry[name]
	if !ok {
		return fmt.Errorf("bench: unknown benchmark %q (have %v)", name, Names())
	}
	ctx.entries = nil
	if err := spec.Run(ctx); err != nil {
		return err
	}
	if ctx.Smoke || len(ctx.entries) == 0 {
		return nil
	}
	out := ctx.Out
	if out == "" {
		out = spec.Ledger
	}
	if out == "" {
		return nil
	}
	n, err := appendEntries(out, ctx.entries)
	if err != nil {
		return err
	}
	for range ctx.entries {
		ctx.Printf("appended %q entry to %s (%d entries)", ctx.Label, out, n)
	}
	return nil
}

// appendEntries appends records to a JSON-array ledger file, preserving
// existing entries of any shape, and returns the new ledger length.
func appendEntries(out string, entries []any) (int, error) {
	var ledger []json.RawMessage
	if data, err := os.ReadFile(out); err == nil && len(bytes.TrimSpace(data)) > 0 {
		if err := json.Unmarshal(data, &ledger); err != nil {
			return 0, fmt.Errorf("%s exists but is not a valid ledger: %v", out, err)
		}
	}
	for _, e := range entries {
		raw, err := json.Marshal(e)
		if err != nil {
			return 0, err
		}
		ledger = append(ledger, raw)
	}
	data, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return 0, err
	}
	return len(ledger), nil
}
