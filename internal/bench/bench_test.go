package bench_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pim/internal/bench"

	// The real registrations, exactly as cmd/pimbench links them.
	_ "pim/internal/experiments"
	_ "pim/internal/faultsearch"
)

// TestRegistryCoversEveryBenchmark pins the `pimbench run all` surface:
// every benchmark the Makefile and EXPERIMENTS.md reference must be
// registered, each with a summary, and the ledgered ones with their ledger
// path. A registration dropped in a refactor fails here, not at the first
// CI smoke run.
func TestRegistryCoversEveryBenchmark(t *testing.T) {
	want := map[string]string{
		"fig2":        "BENCH_fig2.json",
		"recovery":    "BENCH_recovery.json",
		"scaling":     "BENCH_scale.json",
		"tenk":        "BENCH_scale.json",
		"dense4k":     "BENCH_scale.json",
		"faultsearch": "BENCH_faultsearch.json",
		"telemetry":   "", // report file, no ledger
	}
	names := bench.Names()
	real := 0
	for _, n := range names {
		if n != "selftest" { // this test file's own fixture
			real++
		}
	}
	if real != len(want) {
		t.Errorf("registry holds %v, want exactly %d benchmarks", names, len(want))
	}
	for name, ledger := range want {
		spec, ok := bench.Get(name)
		if !ok {
			t.Errorf("benchmark %q not registered", name)
			continue
		}
		if spec.Summary == "" {
			t.Errorf("%q has no summary", name)
		}
		if spec.Ledger != ledger {
			t.Errorf("%q ledger = %q, want %q", name, spec.Ledger, ledger)
		}
	}
}

func init() {
	bench.Register("selftest", bench.Spec{
		Summary: "registry unit-test fixture",
		Ledger:  "BENCH_selftest.json",
		Run: func(ctx *bench.Context) error {
			ctx.Printf("running selftest label=%s smoke=%v", ctx.Label, ctx.Smoke)
			if ctx.Budget < 0 {
				return errors.New("gate refused")
			}
			type entry struct {
				bench.LedgerHeader
				Value int `json:"value"`
			}
			ctx.Append(entry{LedgerHeader: ctx.Header("-x"), Value: ctx.Budget})
			return nil
		},
	})
}

func readLedger(t *testing.T, path string) []map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ledger []map[string]any
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatalf("%s is not a ledger: %v", path, err)
	}
	return ledger
}

func TestRunAppendsToLedger(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ledger.json")
	// Pre-existing entries of a foreign shape must survive an append.
	if err := os.WriteFile(out, []byte(`[{"legacy": true}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged bool
	ctx := &bench.Context{Label: "t", Out: out, Budget: 7,
		Logf: func(string, ...interface{}) { logged = true }}
	if err := bench.Run("selftest", ctx); err != nil {
		t.Fatal(err)
	}
	if !logged {
		t.Error("benchmark output did not flow through Logf")
	}
	ledger := readLedger(t, out)
	if len(ledger) != 2 {
		t.Fatalf("ledger has %d entries, want legacy + new", len(ledger))
	}
	if ledger[0]["legacy"] != true {
		t.Error("pre-existing entry not preserved")
	}
	if ledger[1]["value"] != float64(7) || ledger[1]["label"] != "t-x" {
		t.Errorf("appended entry wrong: %v", ledger[1])
	}
	// A second run appends, never truncates.
	if err := bench.Run("selftest", ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(readLedger(t, out)); got != 3 {
		t.Fatalf("ledger has %d entries after second run, want 3", got)
	}
}

func TestGateRefusalRecordsNothing(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ledger.json")
	ctx := &bench.Context{Label: "t", Out: out, Budget: -1}
	if err := bench.Run("selftest", ctx); err == nil {
		t.Fatal("gate refusal did not propagate")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("refused run wrote a ledger")
	}
}

func TestSmokeRecordsNothing(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ledger.json")
	ctx := &bench.Context{Label: "t", Out: out, Smoke: true, Budget: 1}
	if err := bench.Run("selftest", ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("smoke run wrote a ledger")
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if err := bench.Run("no-such-benchmark", &bench.Context{}); err == nil {
		t.Fatal("unknown benchmark did not error")
	}
}

func TestRunRefusesCorruptLedger(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ledger.json")
	if err := os.WriteFile(out, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := bench.Run("selftest", &bench.Context{Out: out, Budget: 1}); err == nil {
		t.Fatal("corrupt ledger did not refuse the append")
	}
}

func TestHeaderRecordsProcessConfig(t *testing.T) {
	h := (&bench.Context{Label: "lbl"}).Header("")
	if h.Label != "lbl" || h.GoVersion == "" || h.NumCPU < 1 || h.Shards != 1 {
		t.Errorf("header incomplete: %+v", h)
	}
	if h.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers = %d with none requested, want GOMAXPROCS", h.Workers)
	}
	if h := (&bench.Context{Shards: 4, Workers: 3}).Header("-x"); h.Shards != 4 || h.Workers != 3 || h.Label != "-x" {
		t.Errorf("header did not record the context's shard and worker counts: %+v", h)
	}
}
