package unicast

import (
	"reflect"
	"testing"
	"testing/quick"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/packet"
)

func TestTableLongestPrefixMatch(t *testing.T) {
	tb := &Table{}
	r8 := Route{NextHop: addr.V4(1, 0, 0, 1), Metric: 8}
	r16 := Route{NextHop: addr.V4(1, 0, 0, 2), Metric: 16}
	r24 := Route{NextHop: addr.V4(1, 0, 0, 3), Metric: 24}
	tb.Set(addr.MustPrefix(addr.V4(10, 0, 0, 0), 8), r8)
	tb.Set(addr.MustPrefix(addr.V4(10, 1, 0, 0), 16), r16)
	tb.Set(addr.MustPrefix(addr.V4(10, 1, 2, 0), 24), r24)
	for _, tc := range []struct {
		dst  addr.IP
		want Route
		ok   bool
	}{
		{addr.V4(10, 1, 2, 3), r24, true},
		{addr.V4(10, 1, 9, 9), r16, true},
		{addr.V4(10, 7, 7, 7), r8, true},
		{addr.V4(11, 0, 0, 1), Route{}, false},
	} {
		got, ok := tb.Lookup(tc.dst)
		if ok != tc.ok || got != tc.want {
			t.Errorf("Lookup(%v) = %+v, %v", tc.dst, got, ok)
		}
	}
}

func TestTableSetReplacesAndDelete(t *testing.T) {
	tb := &Table{}
	p := addr.MustPrefix(addr.V4(10, 0, 0, 0), 8)
	tb.Set(p, Route{Metric: 5})
	tb.Set(p, Route{Metric: 7})
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if r, _ := tb.Get(p); r.Metric != 7 {
		t.Errorf("Metric = %d", r.Metric)
	}
	tb.Delete(p)
	if tb.Len() != 0 {
		t.Error("Delete failed")
	}
	tb.Delete(p) // idempotent
}

func TestTableInfMetricHidden(t *testing.T) {
	tb := &Table{}
	tb.Set(addr.MustPrefix(addr.V4(10, 0, 0, 0), 8), Route{Metric: InfMetric})
	if _, ok := tb.Lookup(addr.V4(10, 1, 1, 1)); ok {
		t.Error("unreachable route returned by Lookup")
	}
}

func TestTableNotify(t *testing.T) {
	tb := &Table{}
	n := 0
	tb.OnChange(func() { n++ })
	tb.NotifyChanged()
	tb.NotifyChanged()
	if n != 2 {
		t.Errorf("notifications = %d", n)
	}
}

func TestTableReplaceDetectsNoChange(t *testing.T) {
	tb := &Table{}
	p := addr.MustPrefix(addr.V4(10, 0, 0, 0), 8)
	m := map[addr.Prefix]Route{p: {Metric: 3}}
	if !tb.Replace(m) {
		t.Error("first Replace should report change")
	}
	if tb.Replace(m) {
		t.Error("identical Replace should report no change")
	}
	m[p] = Route{Metric: 4}
	if !tb.Replace(m) {
		t.Error("modified Replace should report change")
	}
}

// buildLine wires n routers in a line: r0 - r1 - ... - r(n-1). Link i joins
// ri and ri+1 with addresses 10.200.i.{1,2} and the given delay.
func buildLine(n int, delay netsim.Time) (*netsim.Network, []*netsim.Node) {
	net := netsim.NewNetwork()
	nodes := make([]*netsim.Node, n)
	for i := range nodes {
		nodes[i] = net.AddNode("r" + string(rune('0'+i)))
	}
	for i := 0; i < n-1; i++ {
		a := net.AddIface(nodes[i], addr.V4(10, 200, byte(i), 1))
		b := net.AddIface(nodes[i+1], addr.V4(10, 200, byte(i), 2))
		net.Connect(a, b, delay)
	}
	return net, nodes
}

func TestOracleLine(t *testing.T) {
	net, nodes := buildLine(4, 2*netsim.Millisecond)
	o := NewOracle(net)
	r0 := o.RouterFor(nodes[0])
	// r0 to r3's far interface address.
	rt, ok := r0.Lookup(addr.V4(10, 200, 2, 2))
	if !ok {
		t.Fatal("no route")
	}
	if rt.NextHop != addr.V4(10, 200, 0, 2) {
		t.Errorf("NextHop = %v", rt.NextHop)
	}
	if rt.Iface != nodes[0].Ifaces[0] {
		t.Errorf("Iface = %v", rt.Iface)
	}
	if rt.Metric != int64(2*2*netsim.Millisecond) {
		t.Errorf("Metric = %d", rt.Metric)
	}
	// Connected prefix: nexthop 0.
	rt, ok = r0.Lookup(addr.V4(10, 200, 0, 2))
	if !ok || rt.NextHop != 0 || rt.Metric != 0 {
		t.Errorf("connected route = %+v, %v", rt, ok)
	}
}

func TestOracleReactsToLinkFailure(t *testing.T) {
	// Square: r0-r1-r3 and r0-r2-r3, r0-r1 cheap, r0-r2 expensive.
	net := netsim.NewNetwork()
	var nd [4]*netsim.Node
	for i := range nd {
		nd[i] = net.AddNode("r")
	}
	mk := func(i, j, linkNo int, delay netsim.Time) *netsim.Link {
		a := net.AddIface(nd[i], addr.V4(10, 200, byte(linkNo), 1))
		b := net.AddIface(nd[j], addr.V4(10, 200, byte(linkNo), 2))
		return net.Connect(a, b, delay)
	}
	l01 := mk(0, 1, 0, 1*netsim.Millisecond)
	mk(1, 3, 1, 1*netsim.Millisecond)
	mk(0, 2, 2, 10*netsim.Millisecond)
	mk(2, 3, 3, 10*netsim.Millisecond)
	o := NewOracle(net)
	changed := 0
	tb := o.RouterFor(nd[0])
	tb.OnChange(func() { changed++ })
	dst := addr.V4(10, 200, 1, 2) // r3 via r1 normally
	rt, ok := tb.Lookup(dst)
	if !ok || rt.NextHop != addr.V4(10, 200, 0, 2) {
		t.Fatalf("initial route %+v %v", rt, ok)
	}
	net.SetLinkUp(l01, false)
	rt, ok = tb.Lookup(dst)
	if !ok {
		t.Fatal("no route after failure")
	}
	if rt.NextHop != addr.V4(10, 200, 2, 2) {
		t.Errorf("failover NextHop = %v", rt.NextHop)
	}
	if changed == 0 {
		t.Error("no change notification")
	}
}

func TestOracleLANRouting(t *testing.T) {
	// Three routers on one LAN; traffic between their stub interfaces
	// crosses the LAN directly.
	net := netsim.NewNetwork()
	var nodes []*netsim.Node
	var lanIfaces []*netsim.Iface
	for i := 0; i < 3; i++ {
		nd := net.AddNode("r")
		lanIfaces = append(lanIfaces, net.AddIface(nd, addr.V4(10, 1, 0, byte(i+1))))
		net.AddIface(nd, addr.V4(10, 100, byte(i), 1)) // stub
		nodes = append(nodes, nd)
	}
	net.ConnectLAN(netsim.Millisecond, lanIfaces...)
	// Stub interfaces need links to be considered up.
	for i, nd := range nodes {
		peer := net.AddNode("h")
		pif := net.AddIface(peer, addr.V4(10, 100, byte(i), 2))
		net.Connect(nd.Ifaces[1], pif, netsim.Millisecond)
	}
	o := NewOracle(net)
	rt, ok := o.RouterFor(nodes[0]).Lookup(addr.V4(10, 100, 2, 1))
	if !ok {
		t.Fatal("no route")
	}
	if rt.NextHop != addr.V4(10, 1, 0, 3) {
		t.Errorf("NextHop = %v, want LAN address of r2", rt.NextHop)
	}
	if rt.Iface != nodes[0].Ifaces[0] {
		t.Error("should route out the LAN interface")
	}
}

func runDVLine(t *testing.T, n int) (*netsim.Network, []*netsim.Node, []*DV) {
	t.Helper()
	net, nodes := buildLine(n, netsim.Millisecond)
	dvs := make([]*DV, n)
	for i, nd := range nodes {
		dvs[i] = NewDV(nd)
		dvs[i].Start()
	}
	net.Sched.RunUntil(3 * DVDefaultPeriod)
	return net, nodes, dvs
}

// checkAgainstOracle holds each node's converged protocol table to the
// oracle's choice of next hop and interface toward every interface address.
func checkAgainstOracle(t *testing.T, net *netsim.Network, nodes []*netsim.Node, table func(i int) *Table) {
	t.Helper()
	o := NewOracle(net)
	for i, nd := range nodes {
		want := o.RouterFor(nd)
		for _, dst := range ifaceAddrs(net) {
			wr, wok := want.Lookup(dst)
			gr, ok := table(i).Lookup(dst)
			if !wok || !ok {
				t.Fatalf("r%d route to %v: oracle %v, protocol %v", i, dst, wok, ok)
			}
			if gr.NextHop != wr.NextHop || gr.Iface != wr.Iface {
				t.Errorf("r%d route to %v: got via %v/%v want via %v/%v",
					i, dst, gr.NextHop, gr.Iface, wr.NextHop, wr.Iface)
			}
		}
	}
}

// ifaceAddrs lists every addressed interface's address.
func ifaceAddrs(net *netsim.Network) []addr.IP {
	var out []addr.IP
	for _, nd := range net.Nodes {
		for _, ifc := range nd.Ifaces {
			if ifc.Addr != 0 {
				out = append(out, ifc.Addr)
			}
		}
	}
	return out
}

func TestDVConvergesToShortestPaths(t *testing.T) {
	net, nodes, dvs := runDVLine(t, 5)
	checkAgainstOracle(t, net, nodes, func(i int) *Table { return dvs[i].Table() })
}

func TestDVWithdrawsOnLinkFailure(t *testing.T) {
	net, _, dvs := runDVLine(t, 4)
	dst := addr.V4(10, 200, 2, 2) // r3 side of last link
	if _, ok := dvs[0].Table().Lookup(dst); !ok {
		t.Fatal("expected initial route")
	}
	net.SetLinkUp(net.Links[2], false)
	// After the hold time the route must be gone at r0.
	net.Sched.RunUntil(net.Sched.Now() + 4*DVDefaultPeriod)
	if _, ok := dvs[0].Table().Lookup(dst); ok {
		t.Error("route to severed prefix survived")
	}
}

func TestDVRecoversAfterLinkRestore(t *testing.T) {
	net, _, dvs := runDVLine(t, 4)
	dst := addr.V4(10, 200, 2, 2)
	net.SetLinkUp(net.Links[2], false)
	net.Sched.RunUntil(net.Sched.Now() + 4*DVDefaultPeriod)
	net.SetLinkUp(net.Links[2], true)
	net.Sched.RunUntil(net.Sched.Now() + 3*DVDefaultPeriod)
	if _, ok := dvs[0].Table().Lookup(dst); !ok {
		t.Error("route did not come back after link restore")
	}
}

func runLSLine(t *testing.T, n int) (*netsim.Network, []*netsim.Node, []*LS) {
	t.Helper()
	net, nodes := buildLine(n, netsim.Millisecond)
	lss := make([]*LS, n)
	for i, nd := range nodes {
		lss[i] = NewLS(nd)
		lss[i].Start()
	}
	net.Sched.RunUntil(2 * LSDefaultRefresh)
	return net, nodes, lss
}

func TestLSConvergesToShortestPaths(t *testing.T) {
	net, nodes, lss := runLSLine(t, 5)
	checkAgainstOracle(t, net, nodes, func(i int) *Table { return lss[i].Table() })
}

func TestLSReroutesAroundFailure(t *testing.T) {
	// Ring of 4: r0-r1-r2-r3-r0. Cut r0-r1; r0 must reach r1's prefixes the
	// long way.
	net := netsim.NewNetwork()
	var nodes [4]*netsim.Node
	for i := range nodes {
		nodes[i] = net.AddNode("r")
	}
	links := make([]*netsim.Link, 4)
	for i := 0; i < 4; i++ {
		j := (i + 1) % 4
		a := net.AddIface(nodes[i], addr.V4(10, 200, byte(i), 1))
		b := net.AddIface(nodes[j], addr.V4(10, 200, byte(i), 2))
		links[i] = net.Connect(a, b, netsim.Millisecond)
	}
	var lss [4]*LS
	for i, nd := range nodes {
		lss[i] = NewLS(nd)
		lss[i].Start()
	}
	net.Sched.RunUntil(2 * LSDefaultRefresh)
	dst := addr.V4(10, 200, 1, 1) // r1's interface on link1
	rt, ok := lss[0].Table().Lookup(dst)
	if !ok || rt.NextHop != addr.V4(10, 200, 0, 2) {
		t.Fatalf("initial route %+v %v", rt, ok)
	}
	net.SetLinkUp(links[0], false)
	net.Sched.RunUntil(net.Sched.Now() + 2*LSDefaultRefresh)
	rt, ok = lss[0].Table().Lookup(dst)
	if !ok {
		t.Fatal("no route after cut")
	}
	if rt.NextHop != addr.V4(10, 200, 3, 1) {
		t.Errorf("reroute NextHop = %v, want via r3", rt.NextHop)
	}
}

func TestDVMessageRoundTrip(t *testing.T) {
	f := func(addrs []uint32, lens []uint8, metrics []uint32) bool {
		n := len(addrs)
		if len(lens) < n {
			n = len(lens)
		}
		if len(metrics) < n {
			n = len(metrics)
		}
		var m dvMessage
		for i := 0; i < n; i++ {
			metric := int64(metrics[i] % dvInfWire)
			m.Entries = append(m.Entries, dvEntry{
				Prefix: addr.MustPrefix(addr.IP(addrs[i]), int(lens[i]%33)),
				Metric: metric,
			})
		}
		var got dvMessage
		if err := got.unmarshal(m.marshal()); err != nil {
			return false
		}
		if len(got.Entries) != len(m.Entries) {
			return false
		}
		for i := range got.Entries {
			if got.Entries[i] != m.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDVMessageInfinityEncoding(t *testing.T) {
	m := dvMessage{Entries: []dvEntry{{Prefix: addr.MustPrefix(addr.V4(10, 0, 0, 0), 8), Metric: InfMetric}}}
	var got dvMessage
	if err := got.unmarshal(m.marshal()); err != nil {
		t.Fatal(err)
	}
	if got.Entries[0].Metric != InfMetric {
		t.Errorf("metric = %d, want InfMetric", got.Entries[0].Metric)
	}
}

func TestDVMessageMalformed(t *testing.T) {
	var m dvMessage
	for _, b := range [][]byte{{}, {0}, {0, 5}, {0, 1, 1, 2, 3}} {
		if err := m.unmarshal(b); err == nil {
			t.Errorf("unmarshal(%v) succeeded", b)
		}
	}
	// Prefix length 33 invalid.
	good := dvMessage{Entries: []dvEntry{{Prefix: addr.MustPrefix(0, 0), Metric: 1}}}
	raw := good.marshal()
	raw[2+4] = 33
	if err := m.unmarshal(raw); err == nil {
		t.Error("bad prefix length accepted")
	}
}

func TestLSARoundTrip(t *testing.T) {
	a := lsa{
		Origin: addr.V4(10, 0, 0, 1),
		Seq:    77,
		Neighbors: []lsaNeighbor{
			{Local: addr.V4(10, 200, 0, 1), Peer: addr.V4(10, 200, 0, 2), Cost: 5},
			{Local: addr.V4(10, 200, 1, 1), Peer: addr.V4(10, 200, 1, 3), Cost: 9},
		},
		Prefixes: []addr.Prefix{addr.MustPrefix(addr.V4(10, 200, 0, 0), 24)},
	}
	var got lsa
	if err := got.unmarshal(a.marshal()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("round trip %+v, want %+v", got, a)
	}
}

func TestLSAMalformed(t *testing.T) {
	var a lsa
	for _, b := range [][]byte{{}, make([]byte, 11), {0, 0, 0, 1, 0, 0, 0, 1, 0, 9, 0, 0}} {
		if err := a.unmarshal(b); err == nil {
			t.Errorf("unmarshal(len %d) succeeded", len(b))
		}
	}
}

func TestNewerSeq(t *testing.T) {
	if !newerSeq(2, 1) || newerSeq(1, 2) || newerSeq(5, 5) {
		t.Error("basic comparisons wrong")
	}
	if !newerSeq(1, 0xFFFFFFFF) { // wraparound
		t.Error("wraparound not handled")
	}
}

func BenchmarkTableLookup(b *testing.B) {
	tb := &Table{}
	for i := 0; i < 100; i++ {
		tb.Set(addr.MustPrefix(addr.V4(10, byte(i), 0, 0), 16), Route{Metric: int64(i)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Lookup(addr.V4(10, byte(i%100), 3, 4))
	}
}

// TestLSAgeOutOnSilence: when a router's LSAs stop arriving (all its
// control messages lost), peers age its LSAs out and drop routes through
// and to it.
func TestLSAgeOut(t *testing.T) {
	net, nodes, lss := runLSLine(t, 3)
	dst := addr.V4(10, 200, 1, 2) // r2's prefix side
	if _, ok := lss[0].Table().Lookup(dst); !ok {
		t.Fatal("no initial route")
	}
	// Silence r1 and r2: drop every link-state message they originate.
	silenced := map[*netsim.Node]bool{nodes[1]: true, nodes[2]: true}
	net.Loss = func(from, to *netsim.Iface, pkt *packet.Packet) bool {
		return pkt.Protocol == packet.ProtoLSSim && silenced[from.Node]
	}
	net.Sched.RunUntil(net.Sched.Now() + 4*LSDefaultRefresh)
	if _, ok := lss[0].Table().Lookup(dst); ok {
		t.Error("route survived LSA age-out")
	}
	// Restore: routes come back via fresh LSAs.
	net.Loss = nil
	net.Sched.RunUntil(net.Sched.Now() + 2*LSDefaultRefresh)
	if _, ok := lss[0].Table().Lookup(dst); !ok {
		t.Error("route did not return after silence ended")
	}
}

// TestDVBoundedConvergenceAfterPartition: split-horizon with poisoned
// reverse prevents a two-node count-to-infinity loop when the network
// partitions.
func TestDVNoRouteLoopAfterPartition(t *testing.T) {
	net, _, dvs := runDVLine(t, 3)
	// Cut r1-r2: r0 and r1 lose everything behind the cut.
	net.SetLinkUp(net.Links[1], false)
	net.Sched.RunUntil(net.Sched.Now() + 4*DVDefaultPeriod)
	dst := addr.V4(10, 200, 1, 2)
	if _, ok := dvs[0].Table().Lookup(dst); ok {
		t.Error("r0 kept a route to the partitioned prefix")
	}
	if _, ok := dvs[1].Table().Lookup(dst); ok {
		t.Error("r1 kept a route to the partitioned prefix (count-to-infinity?)")
	}
}
