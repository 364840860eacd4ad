package script

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pim/internal/netsim"
	"pim/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current run")

// TestScenariosUpholdInvariants runs every scenario script in the repository
// under the online invariant checker: the §3.8 soft-state contracts must
// hold through every documented workload, including the fault scripts and
// the mixed sparse/dense internets, whose border routers are checked like any
// other router (interop-border-crash.pim crashes one).
// Counterexamples emitted by the fault-schedule search live under
// scenarios/found/ and RECORD their bug in their expectations (`expect
// violations >= 1`, or a negated delivery oracle): for those, the script's
// own verdict is the contract — a violation is the expected outcome, and
// the file failing means the bug stopped reproducing (fix the file to pin
// the fix, don't delete it).
func TestScenariosUpholdInvariants(t *testing.T) {
	paths, err := Discover("../../scenarios")
	if err != nil {
		t.Fatalf("no scenario scripts found: %v", err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			s, err := ParseFile(path)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			res, err := s.RunWith(RunConfig{Checked: true})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, f := range res.Failures {
				t.Errorf("expectation failed: %s", f)
			}
			if !s.ExpectsViolations() {
				for _, v := range res.Violations {
					t.Errorf("invariant violation: %s", v)
				}
			}
		})
	}
}

// TestTelemetryGoldenDump pins the sampler's JSON dump for the RP-failover
// scenario byte-for-byte: the per-router counter curves are a deterministic
// function of the simulation, so any drift in event emission, bucketing, or
// serialization shows up as a golden-file diff. Regenerate with
//
//	go test ./internal/script/ -run TestTelemetryGoldenDump -update
func TestTelemetryGoldenDump(t *testing.T) {
	s, err := ParseFile("../../scenarios/rpfailover.pim")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bus := telemetry.NewBus()
	smp := telemetry.NewSampler(bus, 5*netsim.Second)
	res, err := s.RunWith(RunConfig{Checked: true, Bus: bus})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.OK() {
		t.Fatalf("scenario failed: %v", res.Failures)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violation: %s", v)
	}

	var buf bytes.Buffer
	if err := smp.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	golden := filepath.Join("testdata", "rpfailover_telemetry.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("telemetry dump drifted from %s (rerun with -update if intended)\ngot %d bytes, want %d",
			golden, buf.Len(), len(want))
	}
}

// TestSamplerReplayMatchesLive licenses "observers fold the stream": the
// RP-failover scenario observed live through RunConfig.Bus, and replayed from
// the canonical captured stream of a run on 1 and on 2 shards, write
// byte-identical dumps — all equal to the golden, live_entry_peak (the one
// field a same-instant reordering could move) included.
func TestSamplerReplayMatchesLive(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "rpfailover_telemetry.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want, []byte(`"live_entry_peak"`)) {
		t.Fatal("golden does not carry live_entry_peak; the comparison would not cover it")
	}
	dump := func(cfg RunConfig, bus *telemetry.Bus, replay bool) []byte {
		s, err := ParseFile("../../scenarios/rpfailover.pim")
		if err != nil {
			t.Fatal(err)
		}
		smp := telemetry.NewSampler(bus, 5*netsim.Second)
		res, err := s.RunWith(cfg)
		if err != nil || !res.OK() {
			t.Fatalf("run %+v: %v %v", cfg, err, res.Failures)
		}
		if replay {
			bus.Replay(res.Events)
		}
		var buf bytes.Buffer
		if err := smp.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	live := telemetry.NewBus()
	if got := dump(RunConfig{Bus: live}, live, false); !bytes.Equal(got, want) {
		t.Errorf("live dump differs from the golden (%d vs %d bytes)", len(got), len(want))
	}
	for _, shards := range []int{1, 2} {
		if got := dump(RunConfig{Captured: true, Shards: shards}, telemetry.NewBus(), true); !bytes.Equal(got, want) {
			t.Errorf("shards=%d: replayed dump differs from the golden (%d vs %d bytes)", shards, len(got), len(want))
		}
	}
}
