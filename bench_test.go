// Benchmarks regenerating the paper's evaluation data. Each figure of the
// paper has a benchmark that reports the figure's quantity via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as the experiment
// harness (EXPERIMENTS.md records the expected shapes):
//
//	Figure 2(a)  BenchmarkFig2aDelayRatio/degree=N      -> ratio, ratio_std
//	Figure 2(b)  BenchmarkFig2bTrafficConcentration/... -> spt_max, cbt_max
//	Figure 1(b)  BenchmarkFig1Broadcast/<protocol>      -> links, data_pkts
//	Figure 1(c)  BenchmarkFig1Concentration/<protocol>  -> delay_ms, bb_pkts
//	§1.2 ledger  BenchmarkSparseOverhead/<protocol>     -> state, ctrl, ...
//
// Ablation benches cover the design choices DESIGN.md §5 calls out.
package pim_test

import (
	"fmt"
	"testing"

	"pim"
	"pim/internal/metrics"
	"pim/internal/trees"
)

// BenchmarkFig2aDelayRatio regenerates Figure 2(a): the ratio of optimal
// core-based tree max delay to shortest-path max delay on 50-node random
// graphs with 10-member groups, per node degree.
func BenchmarkFig2aDelayRatio(b *testing.B) {
	for _, degree := range []float64{3, 4, 5, 6, 7, 8} {
		degree := degree
		b.Run(fmt.Sprintf("degree=%.0f", degree), func(b *testing.B) {
			cfg := pim.DefaultFigure2a()
			cfg.Degrees = []float64{degree}
			cfg.Trials = 50
			var last pim.Fig2aPoint
			for i := 0; i < b.N; i++ {
				cfg.Seed = 1994 + int64(i)
				last = pim.RunFigure2a(cfg)[0]
			}
			b.ReportMetric(last.MeanRatio, "ratio")
			b.ReportMetric(last.StdRatio, "ratio_std")
		})
	}
}

// BenchmarkFig2bTrafficConcentration regenerates Figure 2(b): the maximum
// per-link flow count with 300 40-member groups (32 senders each), per node
// degree, under per-source SPTs and under center-based shared trees.
func BenchmarkFig2bTrafficConcentration(b *testing.B) {
	for _, degree := range []float64{3, 4, 5, 6, 7, 8} {
		degree := degree
		b.Run(fmt.Sprintf("degree=%.0f", degree), func(b *testing.B) {
			cfg := pim.DefaultFigure2b()
			cfg.Degrees = []float64{degree}
			cfg.Trials = 3
			var last pim.Fig2bPoint
			for i := 0; i < b.N; i++ {
				cfg.Seed = 1994 + int64(i)
				last = pim.RunFigure2b(cfg)[0]
			}
			b.ReportMetric(last.SPTMax, "spt_max")
			b.ReportMetric(last.CBTMax, "cbt_max")
			b.ReportMetric(last.CBTOver, "cbt_over_spt")
		})
	}
}

// BenchmarkFig1Broadcast regenerates Figure 1(b): the data-plane footprint
// of one sparse source on the three-domain internet, per protocol. Dense
// mode re-floods every prune lifetime; sparse mode touches only the tree.
func BenchmarkFig1Broadcast(b *testing.B) {
	for _, p := range []pim.Protocol{pim.ProtoDVMRP, pim.ProtoPIMDM, pim.ProtoPIMSM, pim.ProtoPIMSMShared, pim.ProtoCBT} {
		p := p
		b.Run(string(p), func(b *testing.B) {
			var last pim.Fig1Result
			for i := 0; i < b.N; i++ {
				last = pim.RunFigure1Broadcast(p, 30*pim.Second)
			}
			b.ReportMetric(float64(last.TotalLinksTouched), "links")
			b.ReportMetric(float64(last.BackboneLinksTouched), "bb_links")
			b.ReportMetric(float64(last.DataPackets), "data_pkts")
		})
	}
}

// BenchmarkFig1Concentration regenerates Figure 1(c): shared-tree traffic
// concentration and the delay penalty for sources Y and Z.
func BenchmarkFig1Concentration(b *testing.B) {
	for _, p := range []pim.Protocol{pim.ProtoCBT, pim.ProtoPIMSMShared, pim.ProtoPIMSM} {
		p := p
		b.Run(string(p), func(b *testing.B) {
			var last pim.Fig1Result
			for i := 0; i < b.N; i++ {
				last = pim.RunFigure1Concentration(p)
			}
			b.ReportMetric(float64(last.MeanDelay)/float64(pim.Millisecond), "delay_ms")
			b.ReportMetric(float64(last.BackboneDataPackets), "bb_pkts")
			b.ReportMetric(float64(last.MaxLinkData), "max_link")
		})
	}
}

// BenchmarkSparseOverhead regenerates the paper's §1.2 overhead ledger on a
// random 50-node internet with sparse groups, per protocol: total state,
// control messages, data packet link-crossings, and links touched by data.
func BenchmarkSparseOverhead(b *testing.B) {
	cfg := pim.DefaultSparseConfig()
	cfg.Duration = 120 * pim.Second
	for _, p := range pim.AllProtocols() {
		p := p
		b.Run(string(p), func(b *testing.B) {
			var last pim.OverheadResult
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Seed = cfg.Seed + int64(i)
				last = pim.RunSparseOverhead(c, p)
			}
			b.ReportMetric(float64(last.State), "state")
			b.ReportMetric(float64(last.CtrlMessages), "ctrl_msgs")
			b.ReportMetric(float64(last.DataPackets), "data_pkts")
			b.ReportMetric(float64(last.LinksTouched), "links")
		})
	}
}

// BenchmarkAblationSPTPolicy measures the §3.3 policy knob: delivery delay
// and data-plane cost on the Figure 1 topology when receivers stay on the
// shared tree versus switching to SPTs.
func BenchmarkAblationSPTPolicy(b *testing.B) {
	for _, tc := range []struct {
		name string
		p    pim.Protocol
	}{
		{"shared-tree", pim.ProtoPIMSMShared},
		{"spt-switch", pim.ProtoPIMSM},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var last pim.Fig1Result
			for i := 0; i < b.N; i++ {
				last = pim.RunFigure1Concentration(tc.p)
			}
			b.ReportMetric(float64(last.MeanDelay)/float64(pim.Millisecond), "delay_ms")
			b.ReportMetric(float64(last.DataPackets), "data_pkts")
		})
	}
}

// BenchmarkAblationCorePlacement quantifies how much optimal core placement
// buys over naive member-rooted trees (DESIGN.md §5).
func BenchmarkAblationCorePlacement(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    trees.CorePolicy
	}{
		{"pairwise-optimal", trees.CorePairwiseOptimal},
		{"eccentricity-center", trees.CoreEccentricity},
		{"first-member", trees.CoreRandomMember},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cfg := pim.DefaultFigure2b()
			cfg.Trials = 2
			cfg.Groups = 100
			cfg.Degrees = []float64{4}
			cfg.Core = tc.c
			var last pim.Fig2bPoint
			for i := 0; i < b.N; i++ {
				cfg.Seed = 7 + int64(i)
				last = pim.RunFigure2b(cfg)[0]
			}
			b.ReportMetric(last.CBTMax, "cbt_max_flows")
		})
	}
}

// BenchmarkAblationRefreshInterval measures soft-state control overhead
// versus the §3.4 refresh period.
func BenchmarkAblationRefreshInterval(b *testing.B) {
	for _, interval := range []pim.Time{30 * pim.Second, 60 * pim.Second, 120 * pim.Second} {
		interval := interval
		b.Run(fmt.Sprintf("interval=%.0fs", interval.Seconds()), func(b *testing.B) {
			var ctrl int64
			for i := 0; i < b.N; i++ {
				g := pim.NewTopology(6)
				for j := 0; j < 5; j++ {
					g.AddEdge(j, j+1, 1)
				}
				sim := pim.BuildSim(g)
				receiver := sim.AddHost(0)
				sim.FinishUnicast(pim.UseOracle)
				group := pim.GroupAddress(0)
				dep := sim.Deploy(pim.SparseMode, pim.WithCoreConfig(pim.Config{
					RPMapping:         map[pim.IP][]pim.IP{group: {sim.RouterAddr(5)}},
					JoinPruneInterval: interval,
				})).(*pim.PIMDeployment)
				sim.Run(2 * pim.Second)
				receiver.Join(group)
				sim.Run(10 * 60 * pim.Second)
				ctrl = 0
				for _, r := range dep.Routers {
					ctrl += r.Metrics.Get(metrics.CtrlJoinPrune)
				}
			}
			b.ReportMetric(float64(ctrl), "joinprune_msgs_10min")
		})
	}
}

// BenchmarkAblationUnicastSubstrate runs the identical PIM-SM rendezvous
// over each unicast substrate (DESIGN.md §5: protocol independence cost).
func BenchmarkAblationUnicastSubstrate(b *testing.B) {
	for _, tc := range []struct {
		name string
		mode pim.UnicastMode
	}{
		{"oracle", pim.UseOracle},
		{"distance-vector", pim.UseDV},
		{"link-state", pim.UseLS},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			delivered := 0
			for i := 0; i < b.N; i++ {
				g := pim.NewTopology(4)
				g.AddEdge(0, 1, 1)
				g.AddEdge(1, 2, 1)
				g.AddEdge(2, 3, 1)
				sim := pim.BuildSim(g)
				receiver := sim.AddHost(0)
				sender := sim.AddHost(3)
				sim.FinishUnicast(tc.mode)
				sim.Run(sim.ConvergenceTime())
				group := pim.GroupAddress(0)
				sim.Deploy(pim.SparseMode, pim.WithCoreConfig(pim.Config{RPMapping: map[pim.IP][]pim.IP{group: {sim.RouterAddr(2)}}}))
				sim.Run(2 * pim.Second)
				receiver.Join(group)
				sim.Run(2 * pim.Second)
				for j := 0; j < 5; j++ {
					pim.SendData(sender, group, 128)
					sim.Run(pim.Second)
				}
				delivered = receiver.Received[group]
			}
			b.ReportMetric(float64(delivered), "delivered_of_5")
		})
	}
}

// BenchmarkSimulatorEventThroughput is a pure substrate micro-benchmark:
// events per second through the discrete-event core under a realistic PIM
// workload.
func BenchmarkSimulatorEventThroughput(b *testing.B) {
	g := pim.RandomTopology(30, 4, 3)
	sim := pim.BuildSim(g)
	var hosts []*pim.Host
	for i := 0; i < 6; i++ {
		hosts = append(hosts, sim.AddHost(i*5))
	}
	sim.FinishUnicast(pim.UseOracle)
	group := pim.GroupAddress(0)
	sim.Deploy(pim.SparseMode, pim.WithCoreConfig(pim.Config{RPMapping: map[pim.IP][]pim.IP{group: {sim.RouterAddr(0)}}}))
	sim.Run(2 * pim.Second)
	for _, h := range hosts[:5] {
		h.Join(group)
	}
	sim.Run(2 * pim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pim.SendData(hosts[5], group, 128)
		sim.Run(pim.Second)
	}
	b.ReportMetric(float64(sim.Net.Sched.Processed)/float64(b.N), "events/op")
}

// BenchmarkEngineFig2a measures the parallel experiment engine on the
// Figure 2(a) workload: identical trial set at one worker versus all CPUs.
// The sub-benchmark ns/op ratio is the engine's speedup (the output series
// is bit-identical either way; TestFig2DeterministicAcrossWorkers pins that).
func BenchmarkEngineFig2a(b *testing.B) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=all", 0}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cfg := pim.DefaultFigure2a()
			cfg.Trials = 30
			cfg.Degrees = []float64{4}
			cfg.Workers = tc.workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pim.RunFigure2a(cfg)
			}
		})
	}
}

// BenchmarkEngineFig2b is the same comparison on the heavier Figure 2(b)
// workload (full flow-count accounting per trial).
func BenchmarkEngineFig2b(b *testing.B) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=all", 0}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cfg := pim.DefaultFigure2b()
			cfg.Trials = 4
			cfg.Groups = 100
			cfg.Degrees = []float64{4}
			cfg.Workers = tc.workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pim.RunFigure2b(cfg)
			}
		})
	}
}

// BenchmarkScalingSenders regenerates the §1.2 sender-set growth series:
// PIM state "require[s] enumeration of sources" and grows with the sender
// count; CBT's single shared tree per group does not.
func BenchmarkScalingSenders(b *testing.B) {
	base := pim.DefaultSparseConfig()
	base.Groups = 2
	base.Duration = 120 * pim.Second
	for _, tc := range []struct {
		proto pim.Protocol
	}{{pim.ProtoPIMSM}, {pim.ProtoPIMSMShared}, {pim.ProtoCBT}} {
		tc := tc
		for _, senders := range []int{1, 8} {
			senders := senders
			b.Run(fmt.Sprintf("%s/senders=%d", tc.proto, senders), func(b *testing.B) {
				cfg := base
				cfg.Senders = senders
				var last pim.OverheadResult
				for i := 0; i < b.N; i++ {
					last = pim.RunSparseOverhead(cfg, tc.proto)
				}
				b.ReportMetric(float64(last.State), "state")
				b.ReportMetric(float64(last.CtrlMessages), "ctrl_msgs")
			})
		}
	}
}

// BenchmarkAblationSourceAggregation measures the §4 aggregation knob:
// total (S,G) state with many senders sharing subnets, host-granular vs
// subnet-aggregated.
func BenchmarkAblationSourceAggregation(b *testing.B) {
	run := func(aggregate bool) int {
		g := pim.NewTopology(3)
		g.AddEdge(0, 1, 1)
		g.AddEdge(1, 2, 1)
		sim := pim.BuildSim(g)
		receiver := sim.AddHost(0)
		var senders []*pim.Host
		for i := 0; i < 8; i++ {
			senders = append(senders, sim.AddHost(2)) // all on one subnet
		}
		sim.FinishUnicast(pim.UseOracle)
		group := pim.GroupAddress(0)
		dep := sim.Deploy(pim.SparseMode, pim.WithCoreConfig(pim.Config{
			RPMapping:        map[pim.IP][]pim.IP{group: {sim.RouterAddr(1)}},
			AggregateSources: aggregate,
		})).(*pim.PIMDeployment)
		sim.Run(2 * pim.Second)
		receiver.Join(group)
		sim.Run(2 * pim.Second)
		for _, s := range senders {
			pim.SendData(s, group, 64)
			sim.Run(200 * pim.Millisecond)
		}
		sim.Run(2 * pim.Second)
		return dep.TotalState()
	}
	for _, tc := range []struct {
		name string
		agg  bool
	}{{"host-granular", false}, {"subnet-aggregated", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			state := 0
			for i := 0; i < b.N; i++ {
				state = run(tc.agg)
			}
			b.ReportMetric(float64(state), "state")
		})
	}
}

// BenchmarkCongestionDelay measures the operational consequence of traffic
// concentration (Figure 2(b)) under finite link bandwidth: mean delivery
// delay with every group rendezvousing at one RP, shared trees vs SPTs.
func BenchmarkCongestionDelay(b *testing.B) {
	cfg := pim.DefaultCongestionConfig()
	cfg.Duration = 30 * pim.Second
	for _, p := range []pim.Protocol{pim.ProtoPIMSMShared, pim.ProtoPIMSM} {
		p := p
		b.Run(string(p), func(b *testing.B) {
			var last pim.CongestionResult
			for i := 0; i < b.N; i++ {
				last = pim.RunCongestion(cfg, p)
			}
			b.ReportMetric(last.MeanDelay.Seconds()*1000, "delay_ms")
			b.ReportMetric(last.MaxQueueDelay.Seconds()*1000, "max_queue_ms")
		})
	}
}
