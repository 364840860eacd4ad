package experiments

import (
	"reflect"
	"testing"

	"pim/internal/netsim"
)

// benchSparse shrinks the scaling-bench base for test speed.
func benchSparse() SparseConfig {
	cfg := DefaultSparse()
	cfg.Nodes = 20
	cfg.Groups = 2
	cfg.Warmup = 10 * netsim.Second
	cfg.Duration = 40 * netsim.Second
	return cfg
}

// TestSenderScalingPerRouterState pins the §3 state asymmetry at per-router
// granularity: PIM "require[s] enumeration of sources", so the average
// per-router entry count climbs with the sender set; CBT's shared tree keeps
// one per-group entry per on-tree router regardless of how many sources
// transmit.
func TestSenderScalingPerRouterState(t *testing.T) {
	base := benchSparse()
	base.Duration = 90 * netsim.Second
	points := RunSenderScaling(base, []int{1, 4}, []Protocol{PIMSM, CBT})
	perRouter := func(r Result) float64 { return float64(r.State) / float64(base.Nodes) }

	pim1, pim4 := perRouter(points[0].Results[0]), perRouter(points[1].Results[0])
	cbt1, cbt4 := perRouter(points[0].Results[1]), perRouter(points[1].Results[1])
	if pim4 <= pim1 {
		t.Errorf("PIM per-router state flat across senders: %.2f -> %.2f", pim1, pim4)
	}
	// CBT may gain a handful of transient entries; anything close to PIM's
	// growth means source enumeration leaked into the shared tree.
	if grow, pimGrow := cbt4-cbt1, pim4-pim1; grow > pimGrow/2 {
		t.Errorf("CBT per-router growth %.2f not well below PIM's %.2f", grow, pimGrow)
	}
	// The new scheduler-side columns must be populated: a run that processed
	// no events or armed no timers did not simulate anything.
	for _, pt := range points {
		for _, r := range pt.Results {
			if r.Events <= 0 || r.PeakTimers <= 0 {
				t.Errorf("%s x=%d: Events=%d PeakTimers=%d, want both positive",
					r.Protocol, pt.X, r.Events, r.PeakTimers)
			}
		}
	}
}

// TestScalingBenchDeterministicAcrossWorkers covers the bench driver the way
// determinism_test covers the raw sweeps: simulated grids (now including the
// Events and PeakTimers columns) identical for any worker count; only wall
// times may differ.
func TestScalingBenchDeterministicAcrossWorkers(t *testing.T) {
	cfg := SmokeScalingBench()
	cfg.Base.Nodes = 15
	cfg.Base.Duration = 40 * netsim.Second
	cfg.Sizes = []int{12, 18}
	cfg.Protos = []Protocol{PIMSM, PIMDM}

	cfg.Base.Workers = 1
	seq := RunScalingBench(cfg)
	cfg.Base.Workers = 8
	par := RunScalingBench(cfg)
	if len(seq.Sweeps) != len(par.Sweeps) || seq.Events == 0 || seq.PeakTimers == 0 {
		t.Fatalf("degenerate bench runs:\nseq = %+v\npar = %+v", seq, par)
	}
	for i := range seq.Sweeps {
		if !reflect.DeepEqual(seq.Sweeps[i].Grid, par.Sweeps[i].Grid) {
			t.Errorf("sweep %q diverged across Workers:\nseq = %+v\npar = %+v",
				seq.Sweeps[i].Name, seq.Sweeps[i].Grid, par.Sweeps[i].Grid)
		}
	}
}
