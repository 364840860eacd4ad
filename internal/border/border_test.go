package border_test

import (
	"math/rand"
	"testing"

	"pim/internal/addr"
	"pim/internal/border"
	"pim/internal/core"
	"pim/internal/igmp"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimdm"
	"pim/internal/pimmsg"
	"pim/internal/telemetry"
	"pim/internal/unicast"
)

// fixture builds a sparse region spliced to a dense region via one border
// router:
//
//	sparse:  rp —— s1 —— BORDER
//	dense:               BORDER —— d1 —— d2
//	hosts:   hrp(rp)  hs(s1)  hd1(d1)  hd2(d2)
type fixture struct {
	net        *netsim.Network
	group      addr.IP
	b          *border.BorderRouter
	sparse     map[string]*core.Router
	dense      map[string]*pimdm.Router
	queriers   map[string]*igmp.Querier
	hosts      map[string]*igmp.Host
	denseLinks []*netsim.Link
	// floods lists every distinct member-existence message seen on a wire,
	// in order of first delivery.
	floods []flood
	// events is what the border's two instances published.
	events []telemetry.Event
}

// flood is one originated member-existence message, however many links its
// copies crossed.
type flood struct {
	at     netsim.Time
	origin string // node name
	pimmsg.MemberAd
}

func build(t *testing.T) *fixture {
	t.Helper()
	net := netsim.NewNetwork()
	rpN := net.AddNode("rp")
	s1N := net.AddNode("s1")
	bN := net.AddNode("border")
	d1N := net.AddNode("d1")
	d2N := net.AddNode("d2")

	p2p := func(a, b *netsim.Node, link int) (*netsim.Iface, *netsim.Iface, *netsim.Link) {
		ia := net.AddIface(a, addr.V4(10, 200, byte(link), 1))
		ib := net.AddIface(b, addr.V4(10, 200, byte(link), 2))
		l := net.Connect(ia, ib, netsim.Millisecond)
		return ia, ib, l
	}
	_, _, _ = p2p(rpN, s1N, 0)
	_, bSparseIf, _ := p2p(s1N, bN, 1)
	bDenseIf := net.AddIface(bN, addr.V4(10, 200, 2, 1))
	d1Up := net.AddIface(d1N, addr.V4(10, 200, 2, 2))
	ld1 := net.Connect(bDenseIf, d1Up, netsim.Millisecond)
	d1Down := net.AddIface(d1N, addr.V4(10, 200, 3, 1))
	d2Up := net.AddIface(d2N, addr.V4(10, 200, 3, 2))
	ld2 := net.Connect(d1Down, d2Up, netsim.Millisecond)
	_ = bSparseIf

	hostAt := func(n *netsim.Node, r int) *igmp.Host {
		rif := net.AddIface(n, addr.V4(10, 100, byte(r), 254))
		hn := net.AddNode("h")
		hif := net.AddIface(hn, addr.V4(10, 100, byte(r), 1))
		net.Connect(rif, hif, netsim.Millisecond)
		return igmp.NewHost(hn, hif)
	}
	hrp := hostAt(rpN, 0)
	hs := hostAt(s1N, 1)
	hd1 := hostAt(d1N, 3)
	hd2 := hostAt(d2N, 4)

	oracle := unicast.NewOracle(net)
	group := addr.GroupForIndex(0)
	rpAddr := rpN.Addr()
	sparseCfg := core.Config{RPMapping: map[addr.IP][]addr.IP{group: {rpAddr}}}
	denseCfg := pimdm.Config{PruneHoldTime: 600 * netsim.Second}

	f := &fixture{
		net: net, group: group,
		sparse: map[string]*core.Router{}, dense: map[string]*pimdm.Router{},
		queriers:   map[string]*igmp.Querier{},
		hosts:      map[string]*igmp.Host{"hrp": hrp, "hs": hs, "hd1": hd1, "hd2": hd2},
		denseLinks: []*netsim.Link{ld1, ld2},
	}
	type floodID struct {
		origin   addr.IP
		consumer bool
		seq      uint32
	}
	seen := map[floodID]bool{}
	net.Trace = func(ev netsim.TraceEvent) {
		if ev.Pkt.Protocol != packet.ProtoPIM {
			return
		}
		typ, body, err := pimmsg.Open(ev.Pkt.Payload)
		if err != nil || typ != pimmsg.TypeMemberAd {
			return
		}
		ad, err := pimmsg.UnmarshalMemberAd(body)
		if err != nil {
			t.Errorf("undecodable member-ad on the wire: %v", err)
			return
		}
		if id := (floodID{ad.Origin, ad.Consumer, ad.Seq}); !seen[id] {
			seen[id] = true
			f.floods = append(f.floods, flood{ev.At, net.IfaceByAddr(ad.Origin).Node.Name, *ad})
		}
	}
	// Pure sparse routers.
	for name, nd := range map[string]*netsim.Node{"rp": rpN, "s1": s1N} {
		r := core.New(nd, sparseCfg, oracle.RouterFor(nd))
		q := igmp.NewQuerier(nd)
		q.OnJoin = func(ifc *netsim.Iface, g addr.IP) { r.LocalJoin(ifc, g) }
		q.OnLeave = func(ifc *netsim.Iface, g addr.IP) { r.LocalLeave(ifc, g) }
		r.Start()
		q.Start()
		f.sparse[name] = r
	}
	// Pure dense routers.
	for name, nd := range map[string]*netsim.Node{"d1": d1N, "d2": d2N} {
		r := pimdm.New(nd, denseCfg, oracle.RouterFor(nd))
		q := igmp.NewQuerier(nd)
		q.OnJoin = func(ifc *netsim.Iface, g addr.IP) { r.LocalJoin(ifc, g) }
		q.OnLeave = func(ifc *netsim.Iface, g addr.IP) { r.LocalLeave(ifc, g) }
		r.Start()
		q.Start()
		f.dense[name] = r
		f.queriers[name] = q
	}
	// The border router, the one publisher on the fixture's bus.
	bus := telemetry.NewBus()
	bus.Subscribe(func(ev telemetry.Event) { f.events = append(f.events, ev) })
	sparseCfg.Telemetry, denseCfg.Telemetry = bus, bus
	f.b = border.New(bN, sparseCfg, denseCfg, oracle.RouterFor(bN), []*netsim.Iface{bDenseIf})
	bq := igmp.NewQuerier(bN)
	bq.OnJoin = func(ifc *netsim.Iface, g addr.IP) { f.b.LocalJoin(ifc, g) }
	bq.OnLeave = func(ifc *netsim.Iface, g addr.IP) { f.b.LocalLeave(ifc, g) }
	f.b.Start()
	bq.Start()

	net.Sched.RunUntil(2 * netsim.Second)
	return f
}

func (f *fixture) run(d netsim.Time) { f.net.Sched.RunUntil(f.net.Sched.Now() + d) }

func (f *fixture) send(h *igmp.Host, n int) {
	for i := 0; i < n; i++ {
		pkt := packet.New(h.Iface.Addr, f.group, packet.ProtoUDP, make([]byte, 64))
		h.Node.Send(h.Iface, pkt, 0)
		f.run(netsim.Second)
	}
}

// TestDenseMemberPullsSparseData is the §4 headline: a member deep in the
// dense region triggers member-existence flooding, the border joins the
// sparse tree, and data from a sparse-region source reaches the member.
func TestDenseMemberPullsSparseData(t *testing.T) {
	f := build(t)
	f.hosts["hd2"].Join(f.group)
	f.run(3 * netsim.Second)

	// Member existence propagated to the border region-wide.
	if !f.b.Dense.RegionHasMembers(f.group) {
		t.Fatal("border never learned region membership")
	}
	// The border joined the shared tree: (*,G) on the sparse instance.
	if f.b.Sparse.MFIB.Wildcard(f.group) == nil {
		t.Fatal("border did not join the sparse tree")
	}
	// And the sparse transit router carries the state.
	if f.sparse["s1"].MFIB.Wildcard(f.group) == nil {
		t.Fatal("no (*,G) at the sparse transit router")
	}
	// A sparse-region source now reaches the dense-region member.
	f.send(f.hosts["hs"], 5)
	if got := f.hosts["hd2"].Received[f.group]; got < 4 {
		t.Fatalf("dense member got %d of 5 packets", got)
	}
	// Member-less dense branch d1's host LAN stays clean? d1 is transit to
	// d2, so its host LAN (truncated leaf, no members) must carry nothing.
	if f.hosts["hd1"].Received[f.group] != 0 {
		t.Error("non-member dense host received data")
	}
}

// TestLastDenseLeaveprunesSparseTree: when the region's last member leaves,
// the border prunes itself off the shared tree.
func TestLastDenseLeavePrunesSparseTree(t *testing.T) {
	f := build(t)
	f.hosts["hd2"].Join(f.group)
	f.run(3 * netsim.Second)
	if f.b.Sparse.MFIB.Wildcard(f.group) == nil {
		t.Fatal("tree did not form")
	}
	f.hosts["hd2"].Leave(f.group)
	// Leave -> member ad refresh -> border leave; allow a query cycle.
	f.run(2 * pimdm.DefaultQueryInterval)
	wc := f.b.Sparse.MFIB.Wildcard(f.group)
	now := f.net.Sched.Now()
	if wc != nil && !wc.OIFEmpty(now) {
		t.Error("border still holds live sparse oifs after region emptied")
	}
}

// TestDenseSourceReachesSparseReceiver: the reverse direction — a source
// inside the dense region, a receiver in the sparse region. The border
// registers the source toward the RP on the region's behalf.
func TestDenseSourceReachesSparseReceiver(t *testing.T) {
	f := build(t)
	f.hosts["hrp"].Join(f.group)
	f.run(3 * netsim.Second)
	f.send(f.hosts["hd2"], 6)
	if got := f.hosts["hrp"].Received[f.group]; got < 5 {
		t.Fatalf("sparse receiver got %d of 6 packets from dense source", got)
	}
	// The RP built (S,G) state toward the dense source via the border.
	src := f.hosts["hd2"].Iface.Addr
	if f.sparse["rp"].MFIB.SG(src, f.group) == nil {
		t.Error("RP holds no (S,G) for the dense-region source")
	}
}

// TestBothDirectionsSimultaneously: members and sources on both sides.
func TestBothDirectionsSimultaneously(t *testing.T) {
	f := build(t)
	f.hosts["hd2"].Join(f.group)
	f.hosts["hs"].Join(f.group)
	f.run(3 * netsim.Second)
	f.send(f.hosts["hd1"], 5) // dense source
	f.send(f.hosts["hs"], 5)  // sparse source (also a member)
	if got := f.hosts["hd2"].Received[f.group]; got < 8 {
		t.Errorf("dense member got %d of 10", got)
	}
	// The sparse member hears the dense source.
	if got := f.hosts["hs"].Received[f.group]; got < 4 {
		t.Errorf("sparse member got %d of 5 dense-source packets", got)
	}
}

// TestBorderLocalMembershipRouting: the border's own IGMP callbacks route to
// the owning protocol instance by interface side.
func TestBorderLocalMembershipRouting(t *testing.T) {
	f := build(t)
	bNode := f.b.Node
	sparseIf := bNode.Ifaces[0] // toward s1
	denseIf := bNode.Ifaces[1]  // toward d1
	if f.b.IsDenseIface(sparseIf) || !f.b.IsDenseIface(denseIf) {
		t.Fatal("IsDenseIface misclassifies")
	}
	f.b.LocalJoin(sparseIf, f.group)
	if f.b.Sparse.MFIB.Wildcard(f.group) == nil {
		t.Error("sparse-side join did not reach the sparse instance")
	}
	f.b.LocalLeave(sparseIf, f.group)
	// Dense-side membership goes to the dense instance (and, via the
	// region-membership splice, back into the sparse tree).
	f.b.LocalJoin(denseIf, f.group)
	if !f.b.Dense.RegionHasMembers(f.group) {
		t.Error("dense-side join did not reach the dense instance")
	}
	f.b.LocalLeave(denseIf, f.group)
	if f.b.StateCount() < 0 {
		t.Error("unreachable")
	}
}

// TestCrashedDenseRouterAgesOut: when the member's router crashes (all its
// messages lost), its member-existence advertisement ages out and the
// border leaves the sparse tree — soft state end to end.
func TestCrashedDenseRouterAgesOut(t *testing.T) {
	f := build(t)
	f.hosts["hd2"].Join(f.group)
	f.run(3 * netsim.Second)
	if !f.b.Dense.RegionHasMembers(f.group) {
		t.Fatal("membership never reached the border")
	}
	// Crash d2: every frame it originates is lost.
	d2 := f.dense["d2"].Node
	f.net.Loss = func(from, to *netsim.Iface, pkt *packet.Packet) bool {
		return from.Node == d2
	}
	f.run(5 * pimdm.DefaultQueryInterval)
	if f.b.Dense.RegionHasMembers(f.group) {
		t.Fatal("crashed router's membership never aged out")
	}
	wc := f.b.Sparse.MFIB.Wildcard(f.group)
	if wc != nil && !wc.OIFEmpty(f.net.Sched.Now()) {
		t.Error("border still on the sparse tree after the region emptied")
	}
}

// floodsBetween returns the distinct member-existence messages first seen in
// (from, to].
func (f *fixture) floodsBetween(from, to netsim.Time) []flood {
	var out []flood
	for _, fl := range f.floods {
		if fl.at > from && fl.at <= to {
			out = append(out, fl)
		}
	}
	return out
}

func (f *fixture) borderOnTree() bool {
	wc := f.b.Sparse.MFIB.Wildcard(f.group)
	return wc != nil && !wc.OIFEmpty(f.net.Sched.Now())
}

// TestOnlyMembersAndTheBorderOriginate counts originations per query
// interval: the border's one solicitation and one advertisement from each
// router that has members — never one per router. Before anyone joins, the
// solicitation is all there is.
func TestOnlyMembersAndTheBorderOriginate(t *testing.T) {
	f := build(t)
	qi := pimdm.DefaultQueryInterval
	perInterval := func(what string, want map[string]int) {
		t.Helper()
		// Every router started at 0, so refreshes fall on multiples of qi.
		start := f.net.Sched.Now() / qi * qi
		f.net.Sched.RunUntil(start + qi - netsim.Second)
		for i := 0; i < 3; i++ {
			from := f.net.Sched.Now()
			f.run(qi)
			got := map[string]int{}
			for _, fl := range f.floodsBetween(from, from+qi) {
				kind := "/ad"
				if fl.Consumer {
					kind = "/solicit"
				}
				got[fl.origin+kind]++
			}
			if len(got) != len(want) {
				t.Fatalf("%s, interval %d: originations %v, want %v", what, i, got, want)
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("%s, interval %d: originations %v, want %v", what, i, got, want)
				}
			}
		}
	}
	perInterval("no members", map[string]int{"border/solicit": 1})
	f.hosts["hd2"].Join(f.group)
	f.run(netsim.Second)
	perInterval("d2 has a member", map[string]int{"border/solicit": 1, "d2/ad": 1})
	f.hosts["hd1"].Join(f.group)
	f.run(netsim.Second)
	perInterval("d1 and d2 have members", map[string]int{"border/solicit": 1, "d1/ad": 1, "d2/ad": 1})
	for _, name := range []string{"d1", "d2"} {
		if n := f.dense[name].Metrics.Get(metrics.CtrlMemberAd); n == 0 {
			t.Errorf("%s counted no member-existence sends", name)
		}
	}
}

// TestJoinAndLastLeaveReachTheBorderAtOnce: both edges are change-driven. A
// join deep in the region, made in the middle of a refresh period, puts the
// border on the sparse tree within one region crossing; the last leave takes
// it off again by an explicit empty advertisement, not by waiting out the
// 3 × QueryInterval expiry.
func TestJoinAndLastLeaveReachTheBorderAtOnce(t *testing.T) {
	f := build(t)
	crossing := 10 * netsim.Millisecond // host LAN + two region hops, 1 ms each
	f.run(pimdm.DefaultQueryInterval / 2)
	f.hosts["hd2"].Join(f.group)
	f.run(crossing)
	if !f.b.Dense.RegionHasMembers(f.group) || !f.borderOnTree() {
		t.Fatalf("%v after the join the border has not joined for the region", crossing)
	}
	f.run(pimdm.DefaultQueryInterval)
	from := f.net.Sched.Now()
	f.hosts["hd2"].Leave(f.group)
	f.run(crossing)
	if f.b.Dense.RegionHasMembers(f.group) || f.borderOnTree() {
		t.Fatalf("%v after the last leave the border still holds the region's membership", crossing)
	}
	withdrawals := f.floodsBetween(from, f.net.Sched.Now())
	if len(withdrawals) != 1 || withdrawals[0].origin != "d2" || withdrawals[0].Consumer || len(withdrawals[0].Groups) != 0 {
		t.Fatalf("last leave flooded %+v, want one empty advertisement from d2", withdrawals)
	}
	// Empty-suppressed from here on: d2 has nothing to refresh.
	from = f.net.Sched.Now()
	f.run(3 * pimdm.DefaultQueryInterval)
	for _, fl := range f.floodsBetween(from, f.net.Sched.Now()) {
		if !fl.Consumer {
			t.Errorf("member-less %s advertised at %v: %+v", fl.origin, fl.at, fl.MemberAd)
		}
	}
}

// TestRegionFallsSilentWithoutABorder: solicitations are soft state. With the
// border stopped, the member's router stops advertising once the last
// solicitation is 3 × QueryInterval old (§3.4: state nobody refreshes goes
// away), and a border that comes back learns the membership in one
// solicitation round — its first flood out, the advertisement back.
func TestRegionFallsSilentWithoutABorder(t *testing.T) {
	f := build(t)
	qi := pimdm.DefaultQueryInterval
	f.hosts["hd2"].Join(f.group)
	f.run(qi + netsim.Second) // past the refresh at qi
	f.b.Stop()
	lastSolicit := qi
	f.net.Sched.RunUntil(lastSolicit + 3*qi + netsim.Second)
	from := f.net.Sched.Now()
	f.run(3*qi + 7*netsim.Second)
	if got := f.floodsBetween(from, f.net.Sched.Now()); len(got) != 0 {
		t.Fatalf("region still talking %v after its last solicitation: %+v", from-lastSolicit, got)
	}
	f.b.Start()
	f.run(10 * netsim.Millisecond)
	if !f.b.Dense.RegionHasMembers(f.group) || !f.borderOnTree() {
		t.Fatal("restarted border did not re-learn the region's membership in one solicitation round")
	}
}

// TestRestartedBorderKeepsItsSides: Restart takes both halves down and up
// together and re-installs the mux over the handlers their Start registered.
// Afterwards the sparse half hears its sparse neighbor and nothing from the
// region (the dense routers' queries go to the dense half, whose solicitation
// gets the region's membership back), and neither half runs a timer armed in
// the first life.
func TestRestartedBorderKeepsItsSides(t *testing.T) {
	f := build(t)
	f.hosts["hd2"].Join(f.group)
	f.run(3 * netsim.Second)
	if !f.borderOnTree() {
		t.Fatal("the border never joined for the region")
	}
	sparseIf, denseIf := f.b.Node.Ifaces[0], f.b.Node.Ifaces[1]
	f.events = nil
	f.b.Restart()
	f.run(2 * pimdm.DefaultQueryInterval)

	ends, starts, sparseNbrs := 0, 0, 0
	for _, ev := range f.events {
		switch ev.Kind {
		case telemetry.EpochEnd:
			ends++
		case telemetry.EpochStart:
			starts++
		case telemetry.TimerFire:
			if ev.Epoch != 1 {
				t.Fatalf("a timer of epoch %d fired at %v after the restart", ev.Epoch, ev.At)
			}
		case telemetry.NeighborUp:
			switch ev.Iface {
			case sparseIf.Index:
				sparseNbrs++
			case denseIf.Index:
				t.Fatalf("the sparse half heard dense router %v's query at %v", ev.Source, ev.At)
			}
		}
	}
	if ends != 2 || starts != 2 {
		t.Errorf("Restart published %d EpochEnd and %d EpochStart, want one per half", ends, starts)
	}
	if sparseNbrs == 0 {
		t.Error("the sparse half never heard its sparse neighbor again")
	}
	if !f.b.Dense.RegionHasMembers(f.group) || !f.borderOnTree() {
		t.Error("the restarted border did not get the region's membership back onto the sparse tree")
	}
	if f.b.Counters().Get(metrics.CtrlMemberAd) != f.b.Dense.Metrics.Get(metrics.CtrlMemberAd) ||
		f.b.Counters().Get(metrics.CtrlJoinPrune) != f.b.Sparse.Metrics.Get(metrics.CtrlJoinPrune)+f.b.Dense.Metrics.Get(metrics.CtrlJoinPrune) {
		t.Error("Counters does not sum the two halves")
	}
}

// TestRestartedMemberRouterIsRelearned: a member's router that was away long
// enough to be forgotten comes back between two solicitations. Its neighbor
// hands it the live solicitation as soon as it hears its first query, so the
// border has the membership back as soon as IGMP has re-learned it — not a
// solicitation period later.
func TestRestartedMemberRouterIsRelearned(t *testing.T) {
	f := build(t)
	qi := pimdm.DefaultQueryInterval
	f.hosts["hd2"].Join(f.group)
	f.run(netsim.Second)
	d2, q2 := f.dense["d2"], f.queriers["d2"]
	d2.Stop()
	q2.Stop()
	f.net.Sched.RunUntil(5*qi + netsim.Second) // neighbor hold time is 3.5 × qi
	if f.b.Dense.RegionHasMembers(f.group) {
		t.Fatal("the stopped router's membership never aged out at the border")
	}
	d2.Start()
	q2.Start()
	// The host answers the querier's start-up query within its report delay
	// window; the next solicitation is 29 s away.
	f.run(f.hosts["hd2"].ReportDelayWindow + netsim.Second)
	if f.net.Sched.Now() >= 6*qi {
		t.Fatal("test no longer ends before the next solicitation")
	}
	if !f.b.Dense.RegionHasMembers(f.group) || !f.borderOnTree() {
		t.Fatal("border did not re-learn the restarted router's membership within one query exchange")
	}
}

// TestMembershipConvergesUnderLoss: with one in five region frames lost, a
// join whose triggered advertisement dies on the way is repaired by the
// periodic one, and two refreshes are enough — for every one of twelve loss
// sequences, some of which do lose the triggered advertisement. A lost
// withdrawal is covered by the border's expiry. Solicitations are lossy too;
// three in a row would have to die before a router fell silent.
func TestMembershipConvergesUnderLoss(t *testing.T) {
	repaired := 0
	for seed := int64(1); seed <= 12; seed++ {
		f := build(t)
		rng := rand.New(rand.NewSource(seed))
		dense := map[*netsim.Link]bool{f.denseLinks[0]: true, f.denseLinks[1]: true}
		f.net.Loss = func(from, to *netsim.Iface, pkt *packet.Packet) bool {
			return dense[from.Link] && rng.Intn(5) == 0
		}
		f.run(pimdm.DefaultQueryInterval / 2)
		f.hosts["hd2"].Join(f.group)
		f.run(netsim.Second)
		if !f.b.Dense.RegionHasMembers(f.group) {
			repaired++
		}
		f.run(2 * pimdm.DefaultQueryInterval)
		if !f.b.Dense.RegionHasMembers(f.group) || !f.borderOnTree() {
			t.Fatalf("loss sequence %d: membership did not reach the border within two refreshes", seed)
		}
		f.hosts["hd2"].Leave(f.group)
		f.run(5 * pimdm.DefaultQueryInterval)
		if f.b.Dense.RegionHasMembers(f.group) || f.borderOnTree() {
			t.Fatalf("loss sequence %d: withdrawn membership still held at the border after expiry", seed)
		}
	}
	if repaired == 0 {
		t.Fatal("no loss sequence lost the triggered advertisement: the periodic repair went untested")
	}
}
