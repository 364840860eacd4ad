package engine_test

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/engine"
	"pim/internal/igmp"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/scenario"
	"pim/internal/topology"
)

// truncated is the diamond 0-1-3, 0-2-3 under one flood-and-prune engine,
// with a sender on 0 and a member on 3, after the first packet has flooded
// and the prunes have settled.
type truncated struct {
	sim      *scenario.Sim
	floods   []*engine.Flood
	sender   *igmp.Host
	receiver *igmp.Host
	g        addr.IP
	// tree is the link 3 accepts the source's packets on; off is the other
	// branch's link into 3, and offRouter (1 or 2) the router on its far end.
	tree, off *netsim.Link
	offRouter int
}

func newTruncated(t *testing.T, proto scenario.Protocol) *truncated {
	t.Helper()
	gr := topology.New(4)
	gr.AddEdge(0, 1, 1)
	gr.AddEdge(0, 2, 1)
	gr.AddEdge(1, 3, 1)
	gr.AddEdge(2, 3, 1)
	d := &truncated{sim: scenario.Build(gr), g: addr.GroupForIndex(0)}
	d.sender = d.sim.AddHost(0)
	d.receiver = d.sim.AddHost(3)
	d.sim.FinishUnicast(scenario.UseOracle)
	switch dep := d.sim.Deploy(proto).(type) {
	case *scenario.PIMDMDeployment:
		for _, r := range dep.Routers {
			d.floods = append(d.floods, &r.Flood)
		}
	case *scenario.DVMRPDeployment:
		for _, r := range dep.Routers {
			d.floods = append(d.floods, &r.Flood)
		}
	}
	d.sim.Run(2 * netsim.Second)
	d.receiver.Join(d.g)
	d.sim.Run(2 * netsim.Second)
	d.send(1)
	d.tree = d.entry(3).IIF.Link
	d.off, d.offRouter = d.sim.EdgeLinks[3], 2 // edge 2-3
	if d.tree == d.off {
		d.off, d.offRouter = d.sim.EdgeLinks[2], 1 // edge 1-3
	}
	return d
}

// send sends n packets a second apart and lets each settle.
func (d *truncated) send(n int) {
	for i := 0; i < n; i++ {
		scenario.SendData(d.sender, d.g, 64)
		d.sim.Run(netsim.Second)
	}
}

func (d *truncated) entry(r int) *mfib.Entry {
	return d.floods[r].MFIB.SG(d.sender.Iface.Addr, d.g)
}

// offOIF is the off-tree router's outgoing interface toward 3.
func (d *truncated) offOIF() *mfib.OIF {
	for _, ifc := range d.off.Ifaces {
		if ifc.Node == d.sim.Routers[d.offRouter] {
			return d.entry(d.offRouter).OIF(ifc.Index)
		}
	}
	return nil
}

func (d *truncated) crossings(l *netsim.Link) int64 { return d.sim.Net.Stats.PerLink[l.ID].DataPackets }

var floodProtocols = []scenario.Protocol{scenario.DenseMode, scenario.DVMRPMode}

// TestNonRPFArrivalPrunesPeer: 3 hears the first packet on both branches.
// The copy that fails the RPF check arrived on a point-to-point link, so it
// prunes the peer there for the longest hold the 16-bit field carries; the
// peer, left with nothing to forward to, prunes itself off the source, and
// later packets cross the reverse-path tree alone (RFC 1075's child links).
func TestNonRPFArrivalPrunesPeer(t *testing.T) {
	for _, proto := range floodProtocols {
		d := newTruncated(t, proto)
		now := d.sim.Net.Sched.Now()
		o := d.offOIF()
		if o == nil || !o.Pruned || o.PruneDeadline < now+65000*netsim.Second {
			t.Fatalf("%s: off-tree branch into 3 is %+v, want pruned for the 16-bit hold", proto, o)
		}
		if e := d.entry(d.offRouter); e.PrunedUntil <= now {
			t.Errorf("%s: r%d kept drawing traffic with an empty outgoing list", proto, d.offRouter)
		}
		before := d.crossings(d.off)
		d.send(3)
		if got := d.crossings(d.off) - before; got != 0 {
			t.Errorf("%s: the pruned branch carried %d packets", proto, got)
		}
		if got := d.receiver.Received[d.g]; got != 4 {
			t.Errorf("%s: member received %d of 4", proto, got)
		}
	}
}

// TestRouteChangeGraftsPrunedBranch: cutting the tree link moves 3's RPF
// interface onto the branch it pruned for 18 hours. The §3.8 rule grafts it
// back, and the off-tree router grafts itself back onto the source, so
// delivery resumes within one graft round trip instead of after the hold.
func TestRouteChangeGraftsPrunedBranch(t *testing.T) {
	for _, proto := range floodProtocols {
		d := newTruncated(t, proto)
		d.sim.Net.SetLinkUp(d.tree, false)
		d.sim.Run(100 * netsim.Millisecond)
		before := d.receiver.Received[d.g]
		d.send(5)
		if got := d.receiver.Received[d.g] - before; got != 5 {
			t.Errorf("%s: member received %d of 5 after the cut", proto, got)
		}
		if iif := d.entry(3).IIF; iif == nil || iif.Link != d.off {
			t.Errorf("%s: r3 did not move its incoming interface onto the surviving branch", proto)
		}
	}
}

// TestLinkUpRegrowsBranch: a link that goes down and comes back up grows its
// pruned branches back at once (the peer may have changed while it was
// down), so the next packet crosses it and is pruned afresh. Both ends had
// pruned each other, so that packet crosses once each way. The same holds
// when the router across fails and returns; while it is down, the cut stays.
func TestLinkUpRegrowsBranch(t *testing.T) {
	for _, proto := range floodProtocols {
		d := newTruncated(t, proto)
		var far *netsim.Iface // 3's end of the off-tree link
		for _, ifc := range d.off.Ifaces {
			if ifc.Node == d.sim.Routers[3] {
				far = ifc
			}
		}
		for _, flap := range []struct {
			name     string
			down, up func()
		}{
			{"link", func() { d.sim.Net.SetLinkUp(d.off, false) }, func() { d.sim.Net.SetLinkUp(d.off, true) }},
			{"far interface", func() { d.sim.Net.SetIfaceUp(far, false) }, func() { d.sim.Net.SetIfaceUp(far, true) }},
		} {
			flap.down()
			if o := d.offOIF(); o == nil || !o.Pruned {
				t.Fatalf("%s, %s down: the cut toward a dead end grew back", proto, flap.name)
			}
			d.sim.Run(netsim.Second)
			flap.up()
			if o := d.offOIF(); o == nil || o.Pruned {
				t.Fatalf("%s, %s up: off-tree branch still pruned: %+v", proto, flap.name, o)
			}
			before := d.crossings(d.off)
			d.send(3)
			if got := d.crossings(d.off) - before; got != 2 {
				t.Errorf("%s, %s up: the regrown link carried %d packets, want the 2 that re-prune it", proto, flap.name, got)
			}
			if o := d.offOIF(); o == nil || !o.Pruned {
				t.Errorf("%s, %s up: the regrown branch was not pruned again", proto, flap.name)
			}
		}
	}
}
