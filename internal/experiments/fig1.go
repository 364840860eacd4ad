package experiments

import (
	"pim/internal/addr"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/scenario"
	"pim/internal/topology"
)

// Figure 1 topology (§1.3): three domains communicating across an internet
// backbone, one group member in each domain.
//
//	backbone ring: 0 - 1 - 2 - 3 - 0, chord 0 - 2
//	domain A: border 4 (at 0), interior 5   <- member + source
//	domain B: border 6 (at 1), interior 7   <- member (+ source Y in 1c)
//	domain C: border 8 (at 2), interior 9   <- member (+ source Z in 1c)
type fig1Sim struct {
	sim     *scenario.Sim
	hosts   map[int]*igmp.Host // router index -> host
	group   addr.IP
	rp      addr.IP // in domain A (router 4), also the CBT core
	baseIdx int     // backbone links are edges [0..4]
}

func buildFig1() *fig1Sim {
	g := topology.New(10)
	g.AddEdge(0, 1, 2) // backbone (edges 0..4)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 2)
	g.AddEdge(3, 0, 2)
	g.AddEdge(0, 2, 3)
	g.AddEdge(0, 4, 1) // domain A
	g.AddEdge(4, 5, 1)
	g.AddEdge(1, 6, 1) // domain B
	g.AddEdge(6, 7, 1)
	g.AddEdge(2, 8, 1) // domain C
	g.AddEdge(8, 9, 1)
	sim := scenario.Build(g)
	f := &fig1Sim{sim: sim, hosts: map[int]*igmp.Host{}, group: addr.GroupForIndex(0)}
	for _, r := range []int{5, 7, 9} {
		f.hosts[r] = sim.AddHost(r)
	}
	sim.FinishUnicast(scenario.UseOracle)
	f.rp = sim.RouterAddr(4)
	return f
}

// Fig1Result reports the data-plane footprint of one protocol on the
// three-domain scenario.
type Fig1Result struct {
	Protocol Protocol
	// BackboneLinksTouched counts backbone links (of 5) that carried data.
	BackboneLinksTouched int
	// TotalLinksTouched counts all graph links that carried data.
	TotalLinksTouched int
	// DataPackets is total data link-crossings during the measured phase.
	DataPackets int64
	// BackboneDataPackets sums data crossings over the five backbone links
	// — the wide-area cost the paper's Figure 1 argues about.
	BackboneDataPackets int64
	// MaxLinkData is the busiest graph link's data packet count.
	MaxLinkData int64
	// Delivered sums member host receptions.
	Delivered int
	// MeanDelay is the average sender→member one-way delay, the Figure 1(c)
	// "packets from Y to Z will not travel via the shortest path" metric.
	MeanDelay netsim.Time
}

// deploy starts proto with its RP / core in domain A. Figure 1 compares the
// tree-building protocols; MOSPF has no place in it.
func (f *fig1Sim) deploy(proto Protocol, pruneLifetime netsim.Time) {
	if proto == MOSPF {
		panic("experiments: protocol not applicable to figure 1: " + string(proto))
	}
	deploy(f.sim, scenario.Recipe{Protocol: string(proto), Anchors: map[addr.IP][]addr.IP{f.group: {f.rp}}, PruneHold: pruneLifetime})
}

// RunFig1Broadcast reproduces Figure 1(b)'s point: a single source in
// domain A sending to three sparse members. Dense-mode protocols
// periodically re-broadcast across the whole internet when prunes expire;
// sparse-mode trees touch only member paths.
func RunFig1Broadcast(proto Protocol, pruneLifetime netsim.Time) Fig1Result {
	f := buildFig1()
	f.deploy(proto, pruneLifetime)
	f.sim.Run(2 * netsim.Second)
	for _, h := range f.hosts {
		h.Join(f.group)
	}
	f.sim.Run(10 * netsim.Second)

	src := f.hosts[5]
	f.sim.Net.Stats.Reset()
	// Send one packet per second for 4 prune lifetimes so dense-mode
	// grow-back shows up in the measured phase.
	duration := 4 * pruneLifetime
	stop := false
	var pump func()
	pump = func() {
		if stop {
			return
		}
		scenario.SendData(src, f.group, 128)
		f.sim.Net.Sched.After(netsim.Second, pump)
	}
	f.sim.Net.Sched.After(0, pump)
	f.sim.Run(duration)
	stop = true
	return f.collect(proto)
}

// RunFig1Concentration reproduces Figure 1(c)'s point: sources Y (domain B)
// and Z (domain C) both send; with a shared tree rooted in domain A all
// traffic funnels over the links toward the core, while SPTs route B↔C
// traffic over the shorter direct path.
func RunFig1Concentration(proto Protocol) Fig1Result {
	f := buildFig1()
	f.deploy(proto, 600*netsim.Second)
	f.sim.Run(2 * netsim.Second)
	for _, h := range f.hosts {
		h.Join(f.group)
	}
	f.sim.Run(10 * netsim.Second)
	f.sim.Net.Stats.Reset()
	var delaySum netsim.Time
	var delayN int64
	for _, h := range f.hosts {
		h := h
		h.OnData = func(g addr.IP, pkt *packet.Packet) {
			if d, ok := scenario.Latency(f.sim.Net.Sched.Now(), pkt); ok {
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
		scenario.SendData(f.hosts[7], f.group, 128) // Y
		scenario.SendData(f.hosts[9], f.group, 128) // Z
		f.sim.Net.Sched.After(netsim.Second, pump)
	}
	f.sim.Net.Sched.After(0, pump)
	f.sim.Run(60 * netsim.Second)
	stop = true
	res := f.collect(proto)
	if delayN > 0 {
		res.MeanDelay = delaySum / netsim.Time(delayN)
	}
	return res
}

func (f *fig1Sim) collect(proto Protocol) Fig1Result {
	res := Fig1Result{Protocol: proto}
	for ei, l := range f.sim.EdgeLinks {
		n := f.sim.Net.Stats.PerLink[l.ID].DataPackets
		if n == 0 {
			continue
		}
		res.TotalLinksTouched++
		if ei < 5 {
			res.BackboneLinksTouched++
		}
	}
	res.DataPackets = f.sim.Net.Stats.Totals.DataPackets
	// Concentration over backbone/graph links only: member host LANs carry
	// every delivered packet under any protocol.
	for ei, l := range f.sim.EdgeLinks {
		n := f.sim.Net.Stats.PerLink[l.ID].DataPackets
		if n > res.MaxLinkData {
			res.MaxLinkData = n
		}
		if ei < 5 {
			res.BackboneDataPackets += n
		}
	}
	for _, h := range f.hosts {
		res.Delivered += h.Received[f.group]
	}
	return res
}
