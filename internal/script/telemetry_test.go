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
// the canonical captured stream of a run, write byte-identical dumps — both
// equal to the golden, live_entry_peak (the one field a same-instant
// reordering could move) included.
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
	if got := dump(RunConfig{Captured: true}, telemetry.NewBus(), true); !bytes.Equal(got, want) {
		t.Errorf("replayed dump differs from the golden (%d vs %d bytes)", len(got), len(want))
	}
}
