package script

import (
	"os"
	"path/filepath"
	"testing"

	"pim/internal/netsim"
)

// TestMain turns on poison-on-release for the whole test binary, once, before
// any (parallel) test builds a simulation: every scenario this package runs
// executes with released frames scribbled to 0xDB. Poison is the one
// process-global left in netsim, so it is never flipped inside a test.
func TestMain(m *testing.M) {
	netsim.SetPoisonFrames(true)
	os.Exit(m.Run())
}

// TestScenariosPoisonedPool enforces the borrowed-frame ownership contract
// (DESIGN.md §13) over the scenario scripts: with released frames poisoned,
// any handler that retained a borrowed packet, payload, or decoded alias past
// its HandlePacket call reads garbage — and the run's digest diverges from
// the embedded golden, which `pimscript -update` recorded in a process that
// never poisons. A matching digest means no protocol engine reads a frame
// after its fan-out completed.
func TestScenariosPoisonedPool(t *testing.T) {
	if !netsim.PoisonFrames() {
		t.Fatal("poison-on-release is off; TestMain must enable it")
	}
	paths, err := filepath.Glob("../../scenarios/*.pim")
	if err != nil || len(paths) == 0 {
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
			res, err := s.RunWith(RunConfig{Captured: true})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			total := 0
			for _, n := range res.Delivered {
				total += n
			}
			if len(res.Events) == 0 && total == 0 {
				t.Fatal("no telemetry events and no deliveries; the check is vacuous")
			}
			if len(res.Failures) > 0 {
				t.Errorf("expectations failed under poison: %v", res.Failures)
			}
			if diff := diffDigest(s.Golden(), DigestLines(res)); diff != "" {
				t.Errorf("digest diverged under poison (stale frame read?): %s", diff)
			}
		})
	}
}
