package main

import (
	"bytes"
	"fmt"
	"time"

	"pim/internal/addr"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimmsg"
	"pim/internal/rpf"
	"pim/internal/scenario"
	"pim/internal/telemetry"
	"pim/internal/unicast"
)

// span is one timed interval at a layer boundary, recorded from this
// directory's own files around the calls into the program.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for the root
	Rebuild int     `json:"rebuild"`
	Name    string  `json:"name"`
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`
}

// tracer keeps spans in memory; main writes them out at exit on a traced
// run. The phase spans cost a handful of clock reads per rebuild, so they
// are taken on every run and setup_s and window_s are read off them.
type tracer struct {
	t0      time.Time
	spans   []span
	open    []int
	rebuild int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rebuild: t.rebuild, Name: name, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id, and returns its
// duration.
func (t *tracer) end(id int) time.Duration {
	if len(t.open) == 0 || t.open[len(t.open)-1] != id {
		panic(fmt.Sprintf("pimperf: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.End = time.Since(t.t0).Seconds()
	return time.Duration((s.End - s.Start) * float64(time.Second))
}

// in times fn as a child span of whatever is open.
func (t *tracer) in(name string, fn func()) time.Duration {
	id := t.begin(name)
	fn()
	return t.end(id)
}

// selfTimes returns each span's duration minus the part its children cover.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// pimTypeNames maps a PIM type byte to its layer metric; types not listed
// (graft-ack, rp-report) count as pimmsg.other_rx.
var pimTypeNames = map[byte]string{
	pimmsg.TypeQuery:     "pimmsg.query_rx",
	pimmsg.TypeRegister:  "pimmsg.register_rx",
	pimmsg.TypeJoinPrune: "pimmsg.joinprune_rx",
	pimmsg.TypeRPReach:   "pimmsg.rpreach_rx",
	pimmsg.TypeAssert:    "pimmsg.assert_rx",
	pimmsg.TypeGraft:     "pimmsg.graft_rx",
	pimmsg.TypeMemberAd:  "pimmsg.memberad_rx",
}

// engineLayer names the module each deployable engine lives in.
var engineLayer = map[scenario.Protocol]string{
	scenario.SparseMode: "core",
	scenario.DenseMode:  "pimdm",
	scenario.DVMRPMode:  "dvmrp",
	scenario.CBTMode:    "cbt",
	scenario.MOSPFMode:  "mospf",
}

// kindNames maps, per engine, the telemetry kinds that engine's layer
// metrics are counted from. Adding a counter is one line here (or in
// commonKinds or pimTypeNames) and one in BENCHMARK.json; no program file
// changes.
var kindNames = map[scenario.Protocol]map[telemetry.Kind]string{
	scenario.SparseMode: {
		telemetry.DataForward:   "core.data_forwards",
		telemetry.JoinPruneSend: "core.joinprune_sends",
		telemetry.RegisterSend:  "core.register_sends",
		telemetry.SPTSwitch:     "core.spt_switches",
		telemetry.TimerFire:     "core.timer_fires",
	},
	scenario.DenseMode: {
		telemetry.DataForward: "pimdm.data_forwards",
		telemetry.RPFDrop:     "pimdm.rpf_drops",
		telemetry.PruneSend:   "pimdm.prune_sends",
		telemetry.GraftSend:   "pimdm.graft_sends",
		telemetry.TimerFire:   "pimdm.timer_fires",
	},
	scenario.DVMRPMode: {
		telemetry.DataForward: "dvmrp.data_forwards",
		telemetry.RPFDrop:     "dvmrp.rpf_drops",
		telemetry.PruneSend:   "dvmrp.prune_sends",
	},
	scenario.CBTMode:   {telemetry.DataForward: "cbt.data_forwards"},
	scenario.MOSPFMode: {telemetry.LSAFlood: "mospf.lsa_floods"},
}

// commonKinds are counted whichever engine runs.
var commonKinds = map[telemetry.Kind]string{
	telemetry.EntryCreate: "mfib.entry_creates",
	telemetry.EntryExpire: "mfib.entry_expires",
	telemetry.MemberJoin:  "igmp.member_joins",
	telemetry.MemberLeave: "igmp.member_leaves",
}

// layerAcc gathers one traced rebuild's layer figures over its engines:
// additive counts, probe time and operations (reported as their ratio), and
// CPU profile samples by layer.
type layerAcc struct {
	count    map[string]float64
	probeNs  map[string]int64
	probeOps map[string]int64
	samples  map[string]int64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{
		count:    map[string]float64{},
		probeNs:  map[string]int64{},
		probeOps: map[string]int64{},
		samples:  map[string]int64{},
	}
}

// hooks are the outside counters of one engine's traced window: the
// telemetry bus by kind, and every delivery by IP protocol and PIM type.
type hooks struct {
	on      bool
	kinds   [256]int64
	protos  [256]int64
	pimType [256]int64
	profile bytes.Buffer
}

func (h *hooks) bus() *telemetry.Bus {
	b := telemetry.NewBus()
	b.Subscribe(func(ev telemetry.Event) {
		if h.on {
			h.kinds[ev.Kind]++
		}
	})
	return b
}

func (h *hooks) delivery(ev netsim.TraceEvent) {
	h.protos[ev.Pkt.Protocol]++
	if ev.Pkt.Protocol == packet.ProtoPIM && len(ev.Pkt.Payload) >= 2 {
		h.pimType[ev.Pkt.Payload[1]]++
	}
}

// fold adds one engine's window counts to the accumulator.
func (a *layerAcc) fold(proto scenario.Protocol, h *hooks) error {
	var all int64
	for k, n := range h.kinds {
		all += n
		if name, ok := kindNames[proto][telemetry.Kind(k)]; ok {
			a.count[name] += float64(n)
		}
		if name, ok := commonKinds[telemetry.Kind(k)]; ok {
			a.count[name] += float64(n)
		}
	}
	a.count["telemetry.events"] += float64(all)
	a.count["telemetry.delivers"] += float64(h.kinds[telemetry.Deliver])

	a.count["packet.data_rx"] += float64(h.protos[packet.ProtoUDP] + h.protos[packet.ProtoPIMData])
	a.count["igmp.msgs_rx"] += float64(h.protos[packet.ProtoIGMP])
	a.count["dvmrp.msgs_rx"] += float64(h.protos[packet.ProtoDVMRP])
	a.count["cbt.msgs_rx"] += float64(h.protos[packet.ProtoCBT])
	a.count["mospf.lsa_rx"] += float64(h.protos[packet.ProtoMOSPF])
	for t, n := range h.pimType {
		name, ok := pimTypeNames[byte(t)]
		if !ok {
			name = "pimmsg.other_rx"
		}
		a.count[name] += float64(n)
	}

	buckets, err := profileBuckets(h.profile.Bytes())
	if err != nil {
		return err
	}
	for b, n := range buckets {
		a.samples[b] += n
	}
	return nil
}

// timed runs fn, which makes ops calls into one layer, as a probe span and
// adds it to the named ratio.
func (a *layerAcc) timed(tr *tracer, name string, ops int, fn func()) {
	a.probeNs[name] += int64(tr.in(name, fn))
	a.probeOps[name] += int64(ops)
}

var (
	sinkRoute unicast.Route
	sinkEntry *mfib.Entry
)

// runProbes times direct calls into single layers on the finished
// simulation's own objects. tables are the routers' MFIBs (none for CBT);
// targets are the addresses RPF resolves in this workload: every sender and
// every RP or core.
func (a *layerAcc) runProbes(tr *tracer, sim *scenario.Sim, tables []*mfib.Table, targets []addr.IP, smoke bool) {
	id := tr.begin("probes")
	defer tr.end(id)
	rounds := 1 << 18
	if smoke {
		rounds = 1 << 12
	}

	// Scheduler: the soft-state re-arm pattern on a store already holding a
	// million parked timers, as the repository's own microbenchmark runs it
	// (the parked population is left out at -smoke sizes).
	sched := netsim.NewScheduler()
	if !smoke {
		tr.in("netsim.sched_prep", func() { sched = netsim.PrepSchedulerBench(netsim.UseWheel()) })
	}
	a.timed(tr, "netsim.sched_ns", rounds, func() { netsim.SchedulerChurn(sched, rounds) })

	// Datagram codec: one 64-byte data packet, marshal then unmarshal.
	pkt := packet.New(addr.V4(10, 100, 1, 1), addr.GroupForIndex(0), packet.ProtoUDP, make([]byte, 64))
	a.timed(tr, "packet.codec_ns", rounds, func() {
		var buf []byte
		var dec packet.Packet
		for i := 0; i < rounds; i++ {
			buf, _ = pkt.MarshalTo(buf[:0])
			_ = packet.UnmarshalInto(&dec, buf)
		}
	})

	// Join/prune codec: one group record with a join and a prune.
	jp := pimmsg.JoinPrune{
		UpstreamNeighbor: addr.V4(10, 200, 0, 1), HoldTime: 180,
		Groups: []pimmsg.GroupRecord{{
			Group:  addr.GroupForIndex(0),
			Joins:  []pimmsg.Addr{{Addr: addr.V4(10, 100, 1, 1)}},
			Prunes: []pimmsg.Addr{{Addr: addr.V4(10, 100, 2, 1), RP: true}},
		}},
	}
	a.timed(tr, "pimmsg.joinprune_codec_ns", rounds, func() {
		var buf []byte
		var dec pimmsg.JoinPrune
		for i := 0; i < rounds; i++ {
			buf = jp.MarshalTo(buf[:0])
			_ = pimmsg.UnmarshalJoinPruneInto(&dec, buf)
		}
	})

	// Unicast longest-prefix match and the RPF cache above it, over every
	// router and every target.
	if len(targets) > 0 {
		unis := make([]unicast.Router, len(sim.Routers))
		caches := make([]*rpf.Cache, len(sim.Routers))
		for i := range sim.Routers {
			unis[i] = sim.UnicastFor(i)
			caches[i] = rpf.New(unis[i])
			for _, t := range targets {
				caches[i].Lookup(t)
			}
		}
		passes := max(1, rounds/(len(unis)*len(targets)))
		ops := passes * len(unis) * len(targets)
		a.timed(tr, "unicast.lookup_ns", ops, func() {
			for p := 0; p < passes; p++ {
				for _, t := range targets {
					for _, u := range unis {
						sinkRoute, _ = u.Lookup(t)
					}
				}
			}
		})
		a.timed(tr, "rpf.lookup_ns", ops, func() {
			for p := 0; p < passes; p++ {
				for _, t := range targets {
					for _, c := range caches {
						sinkRoute, _ = c.Lookup(t)
					}
				}
			}
		})
	}

	// MFIB read: Get on every live key. MFIB write: create and delete a key
	// no engine uses, which leaves the table as it was.
	type slot struct {
		t *mfib.Table
		k mfib.Key
	}
	var live []slot
	for _, t := range tables {
		t.ForEach(func(e *mfib.Entry) { live = append(live, slot{t, e.Key}) })
	}
	if len(live) > 0 {
		passes := max(1, rounds/len(live))
		a.timed(tr, "mfib.get_ns", passes*len(live), func() {
			for p := 0; p < passes; p++ {
				for _, s := range live {
					sinkEntry = s.t.Get(s.k)
				}
			}
		})
	}
	if len(tables) > 0 {
		first := tables[0]
		a.timed(tr, "mfib.upsert_delete_ns", rounds/4, func() {
			for i := 0; i < rounds/4; i++ {
				k := mfib.Key{Source: addr.V4(10, 250, byte(i>>8), byte(i)), Group: addr.GroupForIndex(4000 + i&63)}
				sinkEntry, _ = first.Upsert(k, 0)
				first.Delete(k)
			}
		})
	}
}
