package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"pim/internal/addr"
	"pim/internal/igmp"
	"pim/internal/metrics"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/scenario"
)

// counts are the simulated figures of one window. They depend on the inputs
// alone, so every rebuild of a run must produce the same ones.
type counts struct {
	Events    int64  `json:"window_events"`
	Ctrl      int64  `json:"ctrl_msgs"`
	Data      int64  `json:"data_crossings"`
	State     int64  `json:"state_entries"`
	Owed      int64  `json:"owed"`
	Delivered int64  `json:"delivered"`
	Hash      uint64 `json:"recv_hash"`
	// DelayUs sums the sender-to-member delay of the delivered packets in
	// simulated microseconds; PathUs sums, over the same packets, the delay of
	// the unicast shortest path between the two hosts.
	DelayUs int64 `json:"delay_us"`
	PathUs  int64 `json:"path_us"`
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.Ctrl += o.Ctrl
	c.Data += o.Data
	c.State += o.State
	c.Owed += o.Owed
	c.Delivered += o.Delivered
	c.DelayUs += o.DelayUs
	c.PathUs += o.PathUs
	// Engines run in a fixed order, so chaining their hashes keeps the
	// result order-sensitive and repeatable.
	c.Hash = c.Hash*1099511628211 ^ o.Hash
}

// rebuildResult is one rebuild: the counts and the host-side costs, each
// summed over the rebuild's engines.
type rebuildResult struct {
	counts
	setup, window time.Duration
	allocs        uint64
}

// flow is what one steady member received from one sender.
type flow struct {
	src      addr.IP
	n, delay int64
}

// account is the delivery ledger the host hooks write during a window.
type account struct {
	// from/to bound the send times that count: the window less its drain.
	from, to netsim.Time
	// recv[h][g] counts packets host h received for group g that were sent
	// inside [from, to); sent[g] counts those sends.
	recv [][]int64
	sent []int64
	// flows[h] splits what host h received as a steady member by sender.
	flows [][]flow
}

// rebuild generates the inputs from the seed and runs every engine of the
// workload over them: set-up, GC fence, one measured window each. With acc
// non-nil the windows are traced and the probes run after each.
func rebuild(s spec, seed int64, tr *tracer, acc *layerAcc) (*rebuildResult, error) {
	id := tr.begin("rebuild")
	res := &rebuildResult{}
	var in *inputs
	for ei := range s.engines {
		// Collect the previous simulation before this one is built, so that
		// peak_rss_mb is the largest single rebuild and not two overlapping.
		tr.in("gc_fence", runtime.GC)
		setupID := tr.begin("setup")
		if in == nil {
			var err error
			d := tr.in("topology.gen", func() { in, err = generate(s, seed) })
			if err != nil {
				return nil, err
			}
			if acc != nil {
				acc.count["topology.gen_s"] += d.Seconds()
			}
		}
		if err := runEngine(s, in, ei, tr, setupID, acc, res); err != nil {
			return nil, err
		}
	}
	tr.end(id)
	return res, nil
}

// runEngine sets one engine up on a fresh simulation of the inputs and
// measures its window. It closes the set-up span the caller opened.
func runEngine(s spec, in *inputs, ei int, tr *tracer, setupID int, acc *layerAcc, res *rebuildResult) error {
	proto := s.engines[ei]
	traced := acc != nil
	note := func(name string, d time.Duration) {
		if traced {
			acc.count[name] += d.Seconds()
		}
	}

	// scenario.build: routers, links, and one host on every LAN with a role.
	var sim *scenario.Sim
	hosts := make([]*igmp.Host, len(in.hostRouters))
	acct := &account{sent: make([]int64, len(in.groups)), flows: make([][]flow, len(hosts))}
	note("scenario.build_s", tr.in("scenario.build", func() {
		sim = scenario.Build(in.graph)
		used := make([]bool, len(in.hostRouters))
		for _, gp := range in.groups {
			for _, list := range [][]int{gp.steady, gp.pool, gp.senders} {
				for _, h := range list {
					used[h] = true
				}
			}
		}
		steady := make([][]bool, len(hosts))
		for gi, gp := range in.groups {
			for _, h := range gp.steady {
				if steady[h] == nil {
					steady[h] = make([]bool, len(in.groups))
				}
				steady[h][gi] = true
			}
		}
		acct.recv = make([][]int64, len(hosts))
		for hi, r := range in.hostRouters {
			if !used[hi] {
				continue
			}
			h := sim.AddHost(r)
			hosts[hi] = h
			recv := make([]int64, len(in.groups))
			acct.recv[hi] = recv
			base := in.groups[0].addr
			steady := steady[hi]
			// Set before Deploy, which chains its telemetry tap in front.
			h.OnData = func(g addr.IP, pkt *packet.Packet) {
				now := h.Node.Sched().Now()
				lat, ok := scenario.Latency(now, pkt)
				if !ok {
					return
				}
				if sent := now - lat; sent < acct.from || sent >= acct.to {
					return
				}
				recv[g-base]++
				if steady == nil || !steady[g-base] {
					return
				}
				fl := acct.flows[hi]
				i := 0
				for i < len(fl) && fl[i].src != pkt.Src {
					i++
				}
				if i == len(fl) {
					fl = append(fl, flow{src: pkt.Src})
					acct.flows[hi] = fl
				}
				fl[i].n++
				fl[i].delay += int64(lat)
			}
		}
	}))

	note("unicast.oracle_build_s", tr.in("unicast.oracle_build", func() {
		sim.FinishUnicast(scenario.UseOracle)
	}))

	// One rendezvous point (or CBT core) per group: the router of its first
	// steady member, as §4 of the paper suggests.
	rps := map[addr.IP][]addr.IP{}
	for _, gp := range in.groups {
		rps[gp.addr] = []addr.IP{sim.RouterAddr(in.hostRouters[gp.steady[0]])}
	}
	var hk *hooks
	opts := []scenario.DeployOption{scenario.WithRPMapping(rps)}
	if traced {
		hk = &hooks{}
		opts = append(opts, scenario.WithTelemetry(hk.bus()))
	}
	var dep scenario.Deployment
	note("scenario.deploy_s", tr.in("scenario.deploy", func() { dep = sim.Deploy(proto, opts...) }))

	// Warm-up: neighbours and queriers come up, steady members join, then
	// senders and the flip schedule start and run for the settle period.
	sched := sim.Net.Sched
	note("scenario.warmup_s", tr.in("scenario.warmup", func() {
		sim.Run(2 * netsim.Second)
		for _, gp := range in.groups {
			for _, h := range gp.steady {
				hosts[h].Join(gp.addr)
			}
		}
		sim.Run(3 * netsim.Second)
		interval := s.interval[ei]
		for gi, gp := range in.groups {
			for si, h := range gp.senders {
				gi, g, h := gi, gp.addr, hosts[h]
				var pump func()
				pump = func() {
					if now := sched.Now(); now >= acct.from && now < acct.to {
						acct.sent[gi]++
					}
					scenario.SendData(h, g, 64)
					sched.Post(interval, pump)
				}
				sched.Post(interval*netsim.Time(gp.phase[si])/1_000_000, pump)
			}
		}
		if s.flipEvery > 0 {
			frng := rand.New(rand.NewSource(in.flipSeed))
			var flip func()
			flip = func() {
				gp := in.groups[frng.Intn(len(in.groups))]
				h := hosts[gp.pool[frng.Intn(len(gp.pool))]]
				if h.Member(gp.addr) {
					h.Leave(gp.addr)
				} else {
					h.Join(gp.addr)
				}
				sched.Post(s.flipEvery, flip)
			}
			sched.Post(s.flipEvery, flip)
		}
		sim.Run(s.settle)
	}))
	res.setup += tr.end(setupID)

	// GC fence, outside both timed phases.
	var m0, m1 runtime.MemStats
	tr.in("gc_fence", func() {
		runtime.GC()
		runtime.ReadMemStats(&m0)
	})

	// The measured window: a fixed simulated length.
	acct.from, acct.to = sched.Now(), sched.Now()+s.window-drain
	stats := &sim.Net.Stats
	totals0, drops0 := stats.Totals, stats.Dropped()
	events0 := sim.Net.EventsProcessed()
	spf0 := spfRuns(dep)
	if traced {
		hk.on = true
		sim.Net.Trace = hk.delivery
		if err := pprof.StartCPUProfile(&hk.profile); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	window := tr.in("window", func() { sim.Run(s.window) })
	if traced {
		pprof.StopCPUProfile()
		sim.Net.Trace = nil
		hk.on = false
	}
	runtime.ReadMemStats(&m1)

	c := counts{
		Events: sim.Net.EventsProcessed() - events0,
		Ctrl:   stats.Totals.ControlPackets - totals0.ControlPackets,
		Data:   stats.Totals.DataPackets - totals0.DataPackets,
		State:  int64(dep.TotalState()),
	}
	hash := fnv.New64a()
	var word [8]byte
	for _, recv := range acct.recv {
		for _, n := range recv {
			binary.LittleEndian.PutUint64(word[:], uint64(n))
			hash.Write(word[:])
		}
	}
	c.Hash = hash.Sum64()
	for gi, gp := range in.groups {
		c.Owed += acct.sent[gi] * int64(len(gp.steady))
		for _, h := range gp.steady {
			if got := acct.recv[h][gi]; got > acct.sent[gi] {
				return fmt.Errorf("check failed: %s group %d: a member received %d of the %d packets sent: duplicates", proto, gi, got, acct.sent[gi])
			}
			c.Delivered += acct.recv[h][gi]
		}
	}
	// The reference path of a flow: the unicast route from the member's
	// router back to the sender, plus the two host LANs.
	for hi, fl := range acct.flows {
		for _, f := range fl {
			rt, ok := sim.UnicastFor(in.hostRouters[hi]).Lookup(f.src)
			if !ok {
				return fmt.Errorf("no unicast route from router %d to sender %v", in.hostRouters[hi], f.src)
			}
			c.DelayUs += f.delay
			c.PathUs += f.n * (rt.Metric + 2*int64(scenario.DelayUnit))
		}
	}
	res.counts.add(c)
	res.window += window
	res.allocs += m1.Mallocs - m0.Mallocs

	if !traced {
		return nil
	}

	// Layer figures of the traced window.
	if err := acc.fold(proto, hk); err != nil {
		return err
	}
	engine := engineLayer[proto]
	acc.count[engine+".window_s"] += window.Seconds()
	acc.count[engine+".window_allocs"] += float64(m1.Mallocs - m0.Mallocs)
	acc.count[engine+".window_events"] += float64(c.Events)
	acc.count["mospf.spf_runs"] += float64(spfRuns(dep) - spf0)
	acc.count["runtime.heap_after_setup_mb"] = max(acc.count["runtime.heap_after_setup_mb"], mb(m0.HeapAlloc))
	acc.count["runtime.window_alloc_mb"] += mb(m1.TotalAlloc - m0.TotalAlloc)
	acc.count["runtime.gc_cycles"] += float64(m1.NumGC - m0.NumGC)
	acc.count["runtime.gc_pause_ms"] += float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	acc.count["netsim.peak_timers"] = max(acc.count["netsim.peak_timers"], float64(sim.Net.PeakLiveTimers()))
	acc.count["netsim.ctrl_bytes"] += float64(stats.Totals.ControlBytes - totals0.ControlBytes)
	acc.count["netsim.data_bytes"] += float64(stats.Totals.DataBytes - totals0.DataBytes)
	acc.count["netsim.drops"] += float64(stats.Dropped() - drops0)
	for i := range sim.Routers {
		if t, ok := sim.UnicastFor(i).(interface{ Len() int }); ok {
			acc.count["unicast.table_entries"] += float64(t.Len())
		}
	}
	tables := mfibTables(dep)
	for _, t := range tables {
		acc.count["mfib.entries"] += float64(t.Len())
		acc.count["mfib.state_bytes"] += float64(t.Bytes())
	}
	var live runtime.MemStats
	tr.in("heap_live", func() {
		runtime.GC()
		runtime.ReadMemStats(&live)
	})
	acc.count["runtime.heap_live_mb"] = max(acc.count["runtime.heap_live_mb"], mb(live.HeapAlloc))

	var targets []addr.IP
	for _, gp := range in.groups {
		targets = append(targets, rps[gp.addr][0])
		for _, h := range gp.senders {
			targets = append(targets, hosts[h].Iface.Addr)
		}
	}
	acc.runProbes(tr, sim, tables, targets, s.smoke)
	return nil
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// mfibTables returns the routers' MFIBs; CBT keeps none.
func mfibTables(dep scenario.Deployment) []*mfib.Table {
	var out []*mfib.Table
	switch d := dep.(type) {
	case *scenario.PIMDeployment:
		for _, r := range d.Routers {
			out = append(out, r.MFIB)
		}
	case *scenario.PIMDMDeployment:
		for _, r := range d.Routers {
			out = append(out, r.MFIB)
		}
	case *scenario.DVMRPDeployment:
		for _, r := range d.Routers {
			out = append(out, r.MFIB)
		}
	case *scenario.MOSPFDeployment:
		for _, r := range d.Routers {
			out = append(out, r.MFIB)
		}
	}
	return out
}

// spfRuns sums MOSPF's Dijkstra counter; zero for the other engines.
func spfRuns(dep scenario.Deployment) int64 {
	d, ok := dep.(*scenario.MOSPFDeployment)
	if !ok {
		return 0
	}
	var n int64
	for _, r := range d.Routers {
		n += r.Metrics.Get(metrics.SPFRuns)
	}
	return n
}
