package experiments

import (
	"math/rand"

	"pim/internal/netsim"
	"pim/internal/parallel"
	"pim/internal/script"
	"pim/internal/topology"
)

// ChurnConfig parameterizes the group-dynamics experiment: the §2
// requirement that sparse mode "must support dynamic groups" with
// receiver-initiated membership whose cost scales with the change rate, not
// the group size.
type ChurnConfig struct {
	Nodes  int
	Degree float64
	// Pool is the number of candidate receivers; at any instant roughly
	// half are joined. Each churn event flips one receiver.
	Pool int
	// MeanHold is the average membership duration (exponential-ish via the
	// deterministic workload below).
	MeanHold netsim.Time
	// Duration is the measured phase.
	Duration netsim.Time
	Seed     int64
	// Workers bounds the RunChurnTrials worker pool: 0 = GOMAXPROCS,
	// 1 = sequential. Trial results are identical for every value.
	Workers int
}

// DefaultChurn returns laptop-scale defaults.
func DefaultChurn() ChurnConfig {
	return ChurnConfig{
		Nodes: 50, Degree: 4, Pool: 10,
		MeanHold: 120 * netsim.Second,
		Duration: 600 * netsim.Second,
		Seed:     7,
	}
}

// ChurnResult reports the control cost of membership dynamics.
type ChurnResult struct {
	JoinEvents, LeaveEvents int
	CtrlMessages            int64
	// CtrlPerEvent is the §2 scaling figure of merit: control messages per
	// membership change (steady-state refresh traffic included).
	CtrlPerEvent float64
	// FinalState is the total forwarding entries at the end.
	FinalState int
}

// RunChurn joins and leaves receivers at the configured rate and measures
// the control-message cost per membership event.
func RunChurn(cfg ChurnConfig) ChurnResult {
	text, res := churnScript(cfg)
	run := runCell(text, script.RunConfig{})
	settled, end := run.Runs[0], run.Runs[1]
	res.CtrlMessages = end.Ctrl - settled.Ctrl
	if events := res.JoinEvents + res.LeaveEvents; events > 0 {
		res.CtrlPerEvent = float64(res.CtrlMessages) / float64(events)
	}
	res.FinalState = end.State
	return res
}

// churnScript writes the churn workload as .pim text and counts the
// membership events it schedules: a random internet, a pool of receivers p<i>
// on distinct routers with the RP at the first, and a sender src next to it;
// PIM-SM with half the pool joined and a 5 s settle; then a packet every 5 s
// and one membership flip every MeanHold/Pool — a receiver drawn from the
// seeded stream joins if it is out, leaves if it is in — so each member holds
// for about MeanHold.
func churnScript(cfg ChurnConfig) (string, ChurnResult) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := topology.Random(topology.GenConfig{Nodes: cfg.Nodes, Degree: cfg.Degree}, rng)
	routers := topology.PickDistinct(cfg.Nodes, cfg.Pool, rng)
	var t pimText
	t.line("%s\nunicast oracle\ngroup G0 rp r%d", topoLine(g), routers[0])
	for i, r := range routers {
		t.line("host p%d r%d", i, r)
	}
	t.line("host src r%d", (routers[0]+1)%cfg.Nodes)
	t.protocol(PIMSM, 0)
	joined := make([]bool, cfg.Pool)
	for i := range cfg.Pool / 2 {
		t.line("at 0 join p%d G0", i)
		joined[i] = true
	}
	t.line("run 5s")
	t.line("at 0 send src G0 count=%d every=5s size=128", cfg.Duration/(5*netsim.Second)+1)
	flipEvery := cfg.MeanHold / netsim.Time(cfg.Pool)
	if flipEvery <= 0 {
		flipEvery = netsim.Second
	}
	var res ChurnResult
	for at := flipEvery; at <= cfg.Duration; at += flipEvery {
		i := rng.Intn(cfg.Pool)
		verb := "join"
		if joined[i] {
			verb = "leave"
			res.LeaveEvents++
		} else {
			res.JoinEvents++
		}
		joined[i] = !joined[i]
		t.line("at %s %s p%d G0", script.FormatDuration(at), verb, i)
	}
	t.line("run %s", script.FormatDuration(cfg.Duration))
	return t.String(), res
}

// RunChurnTrials repeats the churn experiment over trials independent
// topologies and workloads. Trial i runs with a seed derived from
// (cfg.Seed, i), so each trial's randomness is a pure function of its index
// and the slice is bit-identical for every cfg.Workers value.
func RunChurnTrials(cfg ChurnConfig, trials int) []ChurnResult {
	out := make([]ChurnResult, trials)
	parallel.For(trials, cfg.Workers, func(i int) {
		c := cfg
		c.Seed = parallel.DeriveSeed(cfg.Seed, int64(i))
		out[i] = RunChurn(c)
	})
	return out
}
