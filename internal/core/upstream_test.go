package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pim/internal/addr"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimmsg"
	"pim/internal/unicast"
)

// upChain is the 3-router chain member — a — b — c=RP — source the upstream
// table is walked on. Every cell acts on one entry at b, the router with
// both a downstream (a) and an upstream (c) neighbor.
type upChain struct {
	net        *netsim.Network
	rb         *Router
	toA        *netsim.Iface // b's interface toward a
	aAddr      addr.IP       // a's address on the a—b link
	g, rp, src addr.IP
	sent       []string
}

func newUpChain(t *testing.T) *upChain {
	t.Helper()
	net := netsim.NewNetwork()
	na, nb, nc := net.AddNode("a"), net.AddNode("b"), net.AddNode("c")
	host := net.AddIface(na, addr.V4(10, 100, 0, 1)) // member LAN, no peer
	iab := net.AddIface(na, addr.V4(10, 0, 0, 1))
	iba := net.AddIface(nb, addr.V4(10, 0, 0, 2))
	ibc := net.AddIface(nb, addr.V4(10, 0, 1, 1))
	icb := net.AddIface(nc, addr.V4(10, 0, 1, 2))
	// The source is a bare host on c's source LAN.
	net.Connect(net.AddIface(nc, addr.V4(10, 200, 0, 1)), net.AddIface(net.AddNode("s"), addr.V4(10, 200, 0, 9)), netsim.Millisecond)
	net.Connect(iab, iba, netsim.Millisecond)
	net.Connect(ibc, icb, netsim.Millisecond)
	oracle := unicast.NewOracle(net)
	c := &upChain{net: net, toA: iba, aAddr: iab.Addr,
		g: addr.GroupForIndex(0), rp: icb.Addr, src: addr.V4(10, 200, 0, 9)}
	cfg := Config{RPMapping: map[addr.IP][]addr.IP{c.g: {c.rp}}, SPTPolicy: SwitchNever}
	ra := New(na, cfg, oracle.RouterFor(na))
	c.rb = New(nb, cfg, oracle.RouterFor(nb))
	for _, r := range []*Router{ra, c.rb, New(nc, cfg, oracle.RouterFor(nc))} {
		r.Start()
	}
	net.Sched.RunUntil(2 * netsim.Second)
	ra.LocalJoin(host, c.g)
	c.settle()
	if wc := c.rb.MFIB.Wildcard(c.g); wc == nil || wc.IIF != ibc || !wc.HasOIF(iba, c.rb.Now()) {
		t.Fatalf("b's (*,G) = %v, want iif toward c and an oif toward a", wc)
	}
	net.Trace = c.trace
	return c
}

// settle delivers whatever is in flight on the 1 ms links.
func (c *upChain) settle() { c.net.Sched.RunUntil(c.net.Sched.Now() + 10*netsim.Millisecond) }

// trace records each join/prune record b sends, as "join (*,G)→c".
func (c *upChain) trace(ev netsim.TraceEvent) {
	if ev.From.Node != c.rb.Node || ev.Pkt.Protocol != packet.ProtoPIM {
		return
	}
	typ, body, err := pimmsg.Open(ev.Pkt.Payload)
	if err != nil || typ != pimmsg.TypeJoinPrune {
		return
	}
	m, err := pimmsg.UnmarshalJoinPrune(body)
	if err != nil {
		panic(err)
	}
	for _, grp := range m.Groups {
		for i, lst := range [][]pimmsg.Addr{grp.Joins, grp.Prunes} {
			for _, a := range lst {
				c.sent = append(c.sent, fmt.Sprintf("%s %s→%s", [2]string{"join", "prune"}[i], c.record(a), ev.To.Node.Name))
			}
		}
	}
}

func (c *upChain) record(a pimmsg.Addr) string {
	switch {
	case a.WC && a.RP && a.Addr == c.rp:
		return "(*,G)"
	case !a.WC && a.RP && a.Addr == c.src:
		return "(S,G)rpt"
	case !a.WC && !a.RP && a.Addr == c.src:
		return "(S,G)"
	}
	return fmt.Sprintf("%+v", a)
}

// entry puts b's (*,G) (sg false) or (S,G) entry into state from, with or
// without a live downstream oif of its own; an (S,G) inherits one from
// (*,G) only if inherit is set. It reports whether upsert created it.
func (c *upChain) entry(t *testing.T, sg bool, from upState, oif, inherit bool) (*mfib.Entry, bool) {
	t.Helper()
	r, now := c.rb, c.rb.Now()
	wc := r.MFIB.Wildcard(c.g)
	k := wc.Key
	if sg {
		wc.RemoveOIF(c.toA)
		k = mfib.Key{Source: c.src, Group: c.g}
	} else if from == notJoined {
		r.deleteEntry(k)
	}
	e, created := r.upsert(k, now)
	if created {
		e.RP = c.rp
		r.setUpstream(e, upstreamTarget(e))
	}
	if from != notJoined {
		created = false
		e.RemoveOIF(c.toA)
		if r.upstream(e, upEvent{kind: evUnwanted}); from == joined {
			e.DeleteAt = 0 // Joined, and the last oif only just went
		}
	}
	if sg && inherit {
		wc.AddOIF(c.toA, now+r.Cfg.holdTime())
	}
	if oif {
		e.AddOIF(c.toA, now+r.Cfg.holdTime())
	}
	c.settle()
	c.sent = nil
	if got := stateOf(e, created); got != from {
		t.Fatalf("set-up left b's entry %v in state %d, want %d", e, got, from)
	}
	return e, created
}

// sptEntry gives b a PrunePending (S,G) beside the cell's (*,G) entry.
func (c *upChain) sptEntry() *mfib.Entry {
	r := c.rb
	sg, _ := r.upsert(mfib.Key{Source: c.src, Group: c.g}, r.Now())
	sg.RP = c.rp
	r.setUpstream(sg, c.src)
	sg.DeleteAt = r.Now() + r.Cfg.holdTime()
	return sg
}

// TestUpstreamTable walks every (state, event) cell of DESIGN.md §21's
// upstream table on b of the chain a — b — c=RP: the join/prune records b
// sends (Network.Trace), the state the entry is left in, and the SPT
// column: b's (S,G) SPT bit before (spt) and after (sptNext) the event. A
// (*,G) cell with spt set also holds a PrunePending (S,G) with the bit.
// diverge moves the (*,G) iif onto a, so the two trees part at b; direct
// makes the (S,G)'s source directly connected (no upstream neighbor).
func TestUpstreamTable(t *testing.T) {
	const gone = upState(255) // the hold-time sweep deleted the entry
	for _, cell := range []struct {
		name               string
		sg                 bool
		from               upState
		oif, inherit       bool
		ev                 upKind
		want               []string
		next               upState
		suppressed, expire bool
		spt, sptNext       bool
		diverge, direct    bool
	}{
		{name: "local join NotJoined", from: notJoined, oif: true, ev: evLocalJoin, want: []string{"join (*,G)→c"}, next: joined},
		{name: "local join Joined", from: joined, oif: true, ev: evLocalJoin, want: []string{"join (*,G)→c"}, next: joined},
		{name: "local join PrunePending", from: prunePending, oif: true, ev: evLocalJoin, want: []string{"join (*,G)→c"}, next: joined},
		// Revival: the group's pruned (S,G) forgets its switch.
		{name: "local join PrunePending, SPT bit", from: prunePending, oif: true, ev: evLocalJoin, want: []string{"join (*,G)→c"}, next: joined, spt: true},
		{name: "local join Joined, SPT bit", from: joined, oif: true, ev: evLocalJoin, want: []string{"join (*,G)→c"}, next: joined, spt: true, sptNext: true},

		{name: "(*,G) join NotJoined", from: notJoined, oif: true, ev: evJoin, want: []string{"join (*,G)→c"}, next: joined},
		{name: "(*,G) join Joined", from: joined, oif: true, ev: evJoin, next: joined},
		// item 17: the revived branch is not re-joined upstream.
		{name: "(*,G) join PrunePending", from: prunePending, oif: true, ev: evJoin, next: joined},
		{name: "(*,G) join PrunePending, SPT bit", from: prunePending, oif: true, ev: evJoin, next: joined, spt: true},
		{name: "(*,G) join Joined, SPT bit", from: joined, oif: true, ev: evJoin, next: joined, spt: true, sptNext: true},
		{name: "(S,G) join NotJoined", sg: true, from: notJoined, oif: true, ev: evJoin, want: []string{"join (S,G)→c"}, next: joined},
		{name: "(S,G) join Joined", sg: true, from: joined, oif: true, ev: evJoin, next: joined},
		// item 17, the same cell for (S,G).
		{name: "(S,G) join PrunePending", sg: true, from: prunePending, oif: true, ev: evJoin, next: joined, spt: true, sptNext: true},

		{name: "unwanted Joined, still wanted", from: joined, oif: true, ev: evUnwanted, next: joined},
		{name: "unwanted Joined", from: joined, ev: evUnwanted, want: []string{"prune (*,G)→c"}, next: prunePending},
		{name: "unwanted PrunePending", from: prunePending, ev: evUnwanted, next: prunePending},
		{name: "unwanted (S,G) Joined, inherited", sg: true, from: joined, inherit: true, ev: evUnwanted, next: joined},
		{name: "unwanted (S,G) Joined", sg: true, from: joined, ev: evUnwanted, want: []string{"prune (S,G)→c"}, next: prunePending, spt: true, sptNext: true},

		{name: "sweep Joined", from: joined, ev: evSweep, want: []string{"prune (*,G)→c"}, next: prunePending},
		{name: "sweep PrunePending", from: prunePending, ev: evSweep, next: prunePending},
		{name: "sweep PrunePending, hold time over", from: prunePending, ev: evSweep, expire: true, next: gone},

		{name: "refresh Joined", from: joined, oif: true, ev: evRefresh, want: []string{"join (*,G)→c"}, next: joined},
		{name: "refresh Joined, suppressed", from: joined, oif: true, ev: evRefresh, suppressed: true, next: joined},
		{name: "refresh Joined, unwanted", from: joined, ev: evRefresh, want: []string{"prune (*,G)→c"}, next: prunePending},
		{name: "refresh PrunePending", from: prunePending, ev: evRefresh, next: prunePending},
		{name: "refresh (S,G) PrunePending, inherited", sg: true, from: prunePending, inherit: true, ev: evRefresh, want: []string{"join (S,G)→c"}, next: joined, spt: true, sptNext: true},

		{name: "RPF change Joined", from: joined, oif: true, ev: evRPFChange, want: []string{"join (*,G)→c", "prune (*,G)→a"}, next: joined},
		// §3.6 over §3.8: the branch to release hangs off the old upstream.
		{name: "RPF change Joined, unwanted", from: joined, ev: evRPFChange, want: []string{"prune (*,G)→a"}, next: prunePending},
		{name: "RPF change PrunePending", from: prunePending, ev: evRPFChange, next: prunePending},
		{name: "RPF change (S,G) Joined", sg: true, from: joined, oif: true, ev: evRPFChange, want: []string{"join (S,G)→c", "prune (S,G)→a"}, next: joined},
		// §3.8: an (S,G) wanted only through the inherited list re-joins
		// too (an RP's (S,G) always is).
		{name: "RPF change (S,G) Joined, inherited", sg: true, from: joined, inherit: true, ev: evRPFChange, want: []string{"join (S,G)→c", "prune (S,G)→a"}, next: joined},
		{name: "RPF change (S,G) PrunePending, inherited", sg: true, from: prunePending, inherit: true, ev: evRPFChange, want: []string{"join (S,G)→c", "prune (S,G)→a"}, next: joined},
		// §3.8: the bit waits for data on the new iif. The (*,G)'s own
		// move leaves the (S,G)'s bit alone.
		{name: "RPF change (S,G) Joined, SPT bit", sg: true, from: joined, oif: true, ev: evRPFChange, want: []string{"join (S,G)→c", "prune (S,G)→a"}, next: joined, spt: true},
		{name: "RPF change (S,G) PrunePending, inherited, SPT bit", sg: true, from: prunePending, inherit: true, ev: evRPFChange, want: []string{"join (S,G)→c", "prune (S,G)→a"}, next: joined, spt: true},
		{name: "RPF change Joined, (S,G) SPT bit", from: joined, oif: true, ev: evRPFChange, want: []string{"join (*,G)→c", "prune (*,G)→a"}, next: joined, spt: true, sptNext: true},

		{name: "RP change NotJoined", from: notJoined, ev: evRPChange, want: []string{"join (*,G)→c"}, next: joined},
		{name: "RP change Joined", from: joined, oif: true, ev: evRPChange, want: []string{"join (*,G)→c"}, next: joined},
		{name: "RP change PrunePending", from: prunePending, oif: true, ev: evRPChange, want: []string{"join (*,G)→c"}, next: joined},

		{name: "SPT join NotJoined", sg: true, from: notJoined, inherit: true, ev: evSPTJoin, want: []string{"join (S,G)→c"}, next: joined},
		// rpAcceptSource at the DR of its source: nothing to join, the data
		// is native already.
		{name: "SPT join NotJoined, source on the iif", sg: true, from: notJoined, inherit: true, ev: evSPTJoin, direct: true, next: joined, sptNext: true},
		{name: "SPT data Joined", sg: true, from: joined, oif: true, ev: evSPTData, next: joined, sptNext: true},
		{name: "SPT data Joined, trees diverge", sg: true, from: joined, oif: true, ev: evSPTData, diverge: true, want: []string{"prune (S,G)rpt→a"}, next: joined, sptNext: true},
		{name: "SPT data PrunePending, trees diverge", sg: true, from: prunePending, ev: evSPTData, diverge: true, want: []string{"prune (S,G)rpt→a"}, next: prunePending, sptNext: true},
		{name: "rpt prune Joined", from: joined, oif: true, ev: evRptPrune, want: []string{"prune (S,G)rpt→c"}, next: joined},
		{name: "rpt prune PrunePending", from: prunePending, ev: evRptPrune, want: []string{"prune (S,G)rpt→c"}, next: prunePending},
		{name: "rpt cancel Joined", from: joined, oif: true, ev: evRptCancel, want: []string{"join (S,G)rpt→c"}, next: joined},
		{name: "rpt cancel PrunePending", from: prunePending, ev: evRptCancel, want: []string{"join (S,G)rpt→c"}, next: prunePending},
	} {
		t.Run(strings.ReplaceAll(cell.name, " ", "_"), func(t *testing.T) {
			c := newUpChain(t)
			e, created := c.entry(t, cell.sg, cell.from, cell.oif, cell.inherit)
			k := e.Key
			if cell.spt {
				sg := e
				if !cell.sg {
					sg = c.sptEntry()
				}
				sg.SPTBit = true
			}
			if cell.diverge {
				wc := c.rb.MFIB.Wildcard(c.g)
				wc.IIF, wc.UpstreamNeighbor = c.toA, c.aAddr
			}
			if cell.direct {
				e.UpstreamNeighbor = 0
			}
			switch {
			case cell.expire:
				e.DeleteAt = c.rb.Now() // the hold time has run out
				c.rb.maintain()
			case cell.ev == evRefresh:
				if cell.suppressed {
					e.SuppressedUntil = c.rb.Now() + netsim.Second
				}
				c.rb.periodicRefresh()
			default:
				ev := upEvent{kind: cell.ev, created: created, src: c.src}
				if cell.ev == evRPFChange {
					ev.oldIIF, ev.oldUp = c.toA, c.aAddr // b's route used to point at a
				}
				c.rb.upstream(e, ev)
			}
			c.settle()
			// Only records about the cell's own entry count: a refresh or a
			// sweep also visits b's other entry.
			own := "(*,G)"
			if cell.sg {
				own = "(S,G)→"
			}
			if cell.ev >= evSPTData {
				own = "(S,G)rpt"
			}
			got := slices.DeleteFunc(c.sent, func(s string) bool { return !strings.Contains(s, own) })
			if !slices.Equal(got, cell.want) {
				t.Errorf("b sent %q, want %q", got, cell.want)
			}
			next := gone
			if cur := c.rb.MFIB.Get(k); cur != nil {
				next = stateOf(cur, false)
			}
			if next != cell.next {
				t.Errorf("next state %d, want %d", next, cell.next)
			}
			if sg := c.rb.MFIB.SG(c.src, c.g); (sg != nil && sg.SPTBit) != cell.sptNext {
				t.Errorf("(S,G) SPT bit after = %v, want %v", sg != nil && sg.SPTBit, cell.sptNext)
			}
		})
	}
}
