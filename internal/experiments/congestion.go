package experiments

import (
	"math/rand"

	"pim/internal/addr"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/scenario"
	"pim/internal/topology"
)

// CongestionConfig parameterizes the concentration→queueing experiment: the
// consequence of Figure 2(b)'s per-link flow concentration once links have
// finite capacity. Many groups share one rendezvous point; with shared
// trees every flow of every group crosses the RP-adjacent links, which
// saturate, while per-source SPTs spread the load.
type CongestionConfig struct {
	Nodes   int
	Degree  float64
	Groups  int
	Members int
	Senders int
	Seed    int64
	// Bandwidth is the per-link capacity in bytes/second.
	Bandwidth int64
	// PacketSize and PacketInterval set each sender's rate.
	PacketSize     int
	PacketInterval netsim.Time
	Duration       netsim.Time
}

// DefaultCongestion returns a workload that loads the RP-adjacent links to
// several times their capacity under shared trees while leaving individual
// SPT paths uncongested.
func DefaultCongestion() CongestionConfig {
	return CongestionConfig{
		Nodes: 30, Degree: 4, Groups: 8, Members: 3, Senders: 2,
		Seed:       11,
		Bandwidth:  20_000, // bytes/s
		PacketSize: 256, PacketInterval: 200 * netsim.Millisecond,
		Duration: 60 * netsim.Second,
	}
}

// CongestionResult reports one protocol variant's delay under load.
type CongestionResult struct {
	Protocol Protocol
	// MeanDelay is the average sender→receiver delivery delay.
	MeanDelay netsim.Time
	// MaxQueueDelay is the worst per-link queueing delay observed.
	MaxQueueDelay netsim.Time
	Delivered     int
}

// RunCongestion measures delivery delay under finite link bandwidth for one
// tree policy (ProtoPIMSM = per-source SPTs, ProtoPIMSMShared = shared
// trees through a single shared RP).
func RunCongestion(cfg CongestionConfig, proto Protocol) CongestionResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := topology.Random(topology.GenConfig{Nodes: cfg.Nodes, Degree: cfg.Degree}, rng)
	sim := scenario.Build(g)

	type party struct {
		host  *igmp.Host
		group addr.IP
	}
	var receivers, senders []party
	hostAt := map[int]*igmp.Host{}
	ensure := func(r int) *igmp.Host {
		if h := hostAt[r]; h != nil {
			return h
		}
		h := sim.AddHost(r)
		hostAt[r] = h
		return h
	}
	rpRouter := rng.Intn(cfg.Nodes)
	rpMap := map[addr.IP][]addr.IP{}
	for gi := 0; gi < cfg.Groups; gi++ {
		grp := addr.GroupForIndex(gi)
		picked := topology.PickDistinct(cfg.Nodes, cfg.Members+cfg.Senders, rng)
		for _, m := range picked[:cfg.Members] {
			receivers = append(receivers, party{ensure(m), grp})
		}
		for _, s := range picked[cfg.Members:] {
			senders = append(senders, party{ensure(s), grp})
		}
		rpMap[grp] = []addr.IP{}
	}
	sim.FinishUnicast(scenario.UseOracle)
	// Every group rendezvous at the same router — the concentration point.
	for grp := range rpMap {
		rpMap[grp] = []addr.IP{sim.RouterAddr(rpRouter)}
	}
	for _, l := range sim.EdgeLinks {
		l.Bandwidth = cfg.Bandwidth
	}

	deploy(sim, scenario.Recipe{Protocol: string(proto), Anchors: rpMap})
	sim.Run(2 * netsim.Second)
	for _, p := range receivers {
		p.host.Join(p.group)
	}
	sim.Run(10 * netsim.Second)

	var delaySum netsim.Time
	var delayN int64
	for _, h := range hostAt {
		h.OnData = func(grp addr.IP, pkt *packet.Packet) {
			if d, ok := scenario.Latency(sim.Net.Sched.Now(), pkt); ok {
				delaySum += d
				delayN++
			}
		}
	}
	stop := false
	var pump func()
	pump = func() {
		if stop {
			return
		}
		for _, s := range senders {
			scenario.SendData(s.host, s.group, cfg.PacketSize)
		}
		sim.Net.Sched.After(cfg.PacketInterval, pump)
	}
	// Warm up the trees (registers, SPT switches) before measuring.
	sim.Net.Sched.After(0, pump)
	sim.Run(10 * netsim.Second)
	delaySum, delayN = 0, 0
	for _, l := range sim.EdgeLinks {
		l.MaxQueueDelay = 0
	}
	sim.Run(cfg.Duration)
	stop = true

	res := CongestionResult{Protocol: proto, Delivered: int(delayN)}
	if delayN > 0 {
		res.MeanDelay = delaySum / netsim.Time(delayN)
	}
	for _, l := range sim.EdgeLinks {
		if l.MaxQueueDelay > res.MaxQueueDelay {
			res.MaxQueueDelay = l.MaxQueueDelay
		}
	}
	return res
}
