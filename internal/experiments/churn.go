package experiments

import (
	"math/rand"

	"pim/internal/addr"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/parallel"
	"pim/internal/scenario"
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
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := topology.Random(topology.GenConfig{Nodes: cfg.Nodes, Degree: cfg.Degree}, rng)
	sim := scenario.Build(g)
	group := addr.GroupForIndex(0)
	routers := topology.PickDistinct(cfg.Nodes, cfg.Pool, rng)
	hosts := make([]*igmp.Host, cfg.Pool)
	for i, r := range routers {
		hosts[i] = sim.AddHost(r)
	}
	sender := sim.AddHost((routers[0] + 1) % cfg.Nodes)
	sim.FinishUnicast(scenario.UseOracle)
	rp := sim.RouterAddr(routers[0])
	dep := deploy(sim, scenario.Recipe{Protocol: string(PIMSM), Anchors: map[addr.IP][]addr.IP{group: {rp}}})
	sim.Run(2 * netsim.Second)

	res := ChurnResult{}
	joined := make([]bool, cfg.Pool)
	// Half the pool starts joined.
	for i := 0; i < cfg.Pool/2; i++ {
		hosts[i].Join(group)
		joined[i] = true
	}
	sim.Run(5 * netsim.Second)
	ctrlBase := dep.ControlMessages()

	// Steady data + membership flips: one flip per MeanHold/Pool, so each
	// member holds for ~MeanHold on average.
	flipEvery := cfg.MeanHold / netsim.Time(cfg.Pool)
	if flipEvery <= 0 {
		flipEvery = netsim.Second
	}
	stop := false
	var pump func()
	pump = func() {
		if stop {
			return
		}
		scenario.SendData(sender, group, 128)
		sim.Net.Sched.After(5*netsim.Second, pump)
	}
	sim.Net.Sched.After(0, pump)
	var flip func()
	flip = func() {
		if stop {
			return
		}
		i := rng.Intn(cfg.Pool)
		if joined[i] {
			hosts[i].Leave(group)
			joined[i] = false
			res.LeaveEvents++
		} else {
			hosts[i].Join(group)
			joined[i] = true
			res.JoinEvents++
		}
		sim.Net.Sched.After(flipEvery, flip)
	}
	sim.Net.Sched.After(flipEvery, flip)
	sim.Run(cfg.Duration)
	stop = true

	res.CtrlMessages = dep.ControlMessages() - ctrlBase
	if events := res.JoinEvents + res.LeaveEvents; events > 0 {
		res.CtrlPerEvent = float64(res.CtrlMessages) / float64(events)
	}
	res.FinalState = dep.TotalState()
	return res
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
