package igmp

import (
	"slices"
	"testing"
	"testing/quick"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/packet"
)

func TestMessageRoundTrip(t *testing.T) {
	for _, m := range []Message{
		{Type: TypeQuery},
		{Type: TypeReport, Group: addr.GroupForIndex(4)},
		{Type: TypeLeave, Group: addr.GroupForIndex(4)},
		{Type: TypeRPMap, Group: addr.GroupForIndex(1), RPs: []addr.IP{addr.V4(10, 0, 0, 1), addr.V4(10, 0, 0, 2)}},
	} {
		got, err := Unmarshal(m.Marshal())
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if got.Type != m.Type || got.Group != m.Group || len(got.RPs) != len(m.RPs) {
			t.Fatalf("round trip: got %+v want %+v", got, m)
		}
		for i := range m.RPs {
			if got.RPs[i] != m.RPs[i] {
				t.Fatalf("RP %d mismatch", i)
			}
		}
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(group uint32, rps []uint32) bool {
		m := Message{Type: TypeRPMap, Group: addr.IP(group)}
		for _, rp := range rps {
			m.RPs = append(m.RPs, addr.IP(rp))
		}
		got, err := Unmarshal(m.Marshal())
		if err != nil || got.Group != m.Group || len(got.RPs) != len(m.RPs) {
			return false
		}
		for i := range m.RPs {
			if got.RPs[i] != m.RPs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		{},
		make([]byte, 7),
		{0x99, 0, 0, 0, 0, 0, 0, 0},       // unknown type
		{TypeReport, 0, 0, 1, 0, 0, 0, 0}, // RPs on non-RPMap
		{TypeRPMap, 0, 0, 2, 0, 0, 0, 0, 1, 1, 1, 1}, // short RP list
	}
	for i, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// lanSetup builds a LAN with one querier router and n hosts.
func lanSetup(t *testing.T, n int) (*netsim.Network, *Querier, []*Host) {
	t.Helper()
	net := netsim.NewNetwork()
	router := net.AddNode("r")
	rif := net.AddIface(router, addr.V4(10, 100, 0, 254))
	ifaces := []*netsim.Iface{rif}
	var hosts []*Host
	for i := 0; i < n; i++ {
		hn := net.AddNode("h")
		hif := net.AddIface(hn, addr.V4(10, 100, 0, byte(i+1)))
		ifaces = append(ifaces, hif)
		hosts = append(hosts, NewHost(hn, hif))
	}
	net.ConnectLAN(netsim.Millisecond, ifaces...)
	q := NewQuerier(router)
	q.Start()
	return net, q, hosts
}

func TestJoinTriggersRouterCallback(t *testing.T) {
	net, q, hosts := lanSetup(t, 2)
	g := addr.GroupForIndex(0)
	var joins []addr.IP
	q.OnJoin = func(ifc *netsim.Iface, group addr.IP) { joins = append(joins, group) }
	hosts[0].Join(g)
	net.Sched.RunUntil(netsim.Second)
	if len(joins) != 1 || joins[0] != g {
		t.Fatalf("joins = %v", joins)
	}
	if !q.HasMember(q.Node.Ifaces[0], g) || !q.HasAnyMember(g) {
		t.Error("querier lost membership")
	}
	// Second member: no duplicate OnJoin.
	hosts[1].Join(g)
	net.Sched.RunUntil(2 * netsim.Second)
	if len(joins) != 1 {
		t.Errorf("duplicate OnJoin: %v", joins)
	}
}

func TestLeaveTriggersCallback(t *testing.T) {
	net, q, hosts := lanSetup(t, 1)
	g := addr.GroupForIndex(0)
	var leaves []addr.IP
	q.OnLeave = func(ifc *netsim.Iface, group addr.IP) { leaves = append(leaves, group) }
	hosts[0].Join(g)
	net.Sched.RunUntil(netsim.Second)
	hosts[0].Leave(g)
	net.Sched.RunUntil(2 * netsim.Second)
	if len(leaves) != 1 || leaves[0] != g {
		t.Fatalf("leaves = %v", leaves)
	}
	if q.HasAnyMember(g) {
		t.Error("membership survived leave")
	}
}

func TestMembershipRefreshedByQueries(t *testing.T) {
	net, q, hosts := lanSetup(t, 1)
	g := addr.GroupForIndex(0)
	hosts[0].Join(g)
	// Run well past the hold time: periodic query/report must keep it alive.
	net.Sched.RunUntil(10 * DefaultQueryInterval)
	if !q.HasAnyMember(g) {
		t.Error("membership expired despite live member")
	}
}

func TestMembershipExpiresWhenHostGoesSilent(t *testing.T) {
	net, q, hosts := lanSetup(t, 1)
	g := addr.GroupForIndex(0)
	hosts[0].Join(g)
	net.Sched.RunUntil(netsim.Second)
	// Silence the host without a leave (crash model).
	hosts[0].joined = nil
	net.Sched.RunUntil(net.Sched.Now() + 2*DefaultMembershipHoldTime)
	if q.HasAnyMember(g) {
		t.Error("membership survived host silence")
	}
}

func TestReportSuppression(t *testing.T) {
	net, _, hosts := lanSetup(t, 5)
	g := addr.GroupForIndex(0)
	for _, h := range hosts {
		h.Join(g)
	}
	net.Sched.RunUntil(netsim.Second)
	// Count reports over one query cycle.
	reports := 0
	net.Trace = func(ev netsim.TraceEvent) {
		if ev.Pkt.Protocol == packet.ProtoIGMP {
			if m, err := Unmarshal(ev.Pkt.Payload); err == nil && m.Type == TypeReport && m.Group == g {
				reports++
			}
		}
	}
	start := net.Sched.Now()
	net.Sched.RunUntil(start + DefaultQueryInterval)
	// Each report is delivered to 5 other stations (traced per delivery);
	// without suppression a cycle would carry 5 reports = 25 deliveries.
	// Suppression should cut that substantially.
	if reports >= 25 {
		t.Errorf("report deliveries = %d, suppression ineffective", reports)
	}
	if reports == 0 {
		t.Error("no reports at all")
	}
}

func TestRPMapReachesRouter(t *testing.T) {
	net, q, hosts := lanSetup(t, 1)
	g := addr.GroupForIndex(3)
	rp := addr.V4(10, 0, 0, 9)
	var gotG addr.IP
	var gotRPs []addr.IP
	q.OnRPMap = func(group addr.IP, rps []addr.IP) { gotG, gotRPs = group, rps }
	hosts[0].Join(g, rp)
	net.Sched.RunUntil(netsim.Second)
	if gotG != g || len(gotRPs) != 1 || gotRPs[0] != rp {
		t.Fatalf("RPMap: group=%v rps=%v", gotG, gotRPs)
	}
}

func TestHostReceivesOnlyJoinedGroups(t *testing.T) {
	net, _, hosts := lanSetup(t, 1)
	g1, g2 := addr.GroupForIndex(0), addr.GroupForIndex(1)
	hosts[0].Join(g1)
	var got []addr.IP
	hosts[0].OnData = func(group addr.IP, pkt *packet.Packet) { got = append(got, group) }
	// Deliver data frames onto the LAN for both groups.
	r := net.Nodes[0]
	for _, g := range []addr.IP{g1, g2} {
		r.Send(r.Ifaces[0], packet.New(addr.V4(9, 9, 9, 9), g, packet.ProtoUDP, []byte("x")), 0)
	}
	net.Sched.RunUntil(netsim.Second)
	if len(got) != 1 || got[0] != g1 {
		t.Fatalf("got %v", got)
	}
	if hosts[0].Received[g1] != 1 || hosts[0].Received[g2] != 0 {
		t.Errorf("Received = %v", hosts[0].Received)
	}
	if !hosts[0].Member(g1) || hosts[0].Member(g2) {
		t.Error("Member() wrong")
	}
}

func TestGroupsEnumeration(t *testing.T) {
	net, q, hosts := lanSetup(t, 1)
	hosts[0].Join(addr.GroupForIndex(0))
	hosts[0].Join(addr.GroupForIndex(1))
	net.Sched.RunUntil(netsim.Second)
	if got := q.Groups(); len(got) != 2 {
		t.Errorf("Groups() = %v", got)
	}
}

// queryReports sends one query and returns the groups of the reports the
// hosts answer it with, in transmission order, with their delivery times.
func queryReports(net *netsim.Network, q *Querier) (groups []addr.IP, at []netsim.Time) {
	net.Trace = func(ev netsim.TraceEvent) {
		if m, err := Unmarshal(ev.Pkt.Payload); ev.Pkt.Protocol == packet.ProtoIGMP && err == nil && m.Type == TypeReport {
			groups, at = append(groups, m.Group), append(at, ev.At)
		}
	}
	q.query()
	net.Sched.RunUntil(net.Sched.Now() + netsim.Second)
	net.Trace = nil
	return groups, at
}

// TestQueryResponsesInGroupOrder pins that reports due at the same instant
// leave in ascending group order, whatever order the host joined in.
func TestQueryResponsesInGroupOrder(t *testing.T) {
	for run := 0; run < 5; run++ {
		net, q, hosts := lanSetup(t, 1)
		hosts[0].ReportDelayWindow = 1 // every response due at once
		for i := 7; i >= 0; i-- {
			hosts[0].Join(addr.GroupForIndex(i))
		}
		net.Sched.RunUntil(netsim.Second)
		got, _ := queryReports(net, q)
		if len(got) != 8 || !slices.IsSorted(got) {
			t.Fatalf("run %d: responses %v, want 8 in ascending group order", run, got)
		}
	}
}

// TestZeroReportWindowAnswersAtOnce pins that a report window of zero
// answers a query at its arrival instant instead of dividing by zero.
func TestZeroReportWindowAnswersAtOnce(t *testing.T) {
	net, q, hosts := lanSetup(t, 1)
	hosts[0].ReportDelayWindow = 0
	g := addr.GroupForIndex(0)
	hosts[0].Join(g)
	net.Sched.RunUntil(netsim.Second)
	sent := net.Sched.Now()
	got, at := queryReports(net, q)
	// One LAN hop for the query, one for the report.
	if len(got) != 1 || got[0] != g || at[0] != sent+2*netsim.Millisecond {
		t.Fatalf("responses %v at %v, want %v at %v", got, at, g, sent+2*netsim.Millisecond)
	}
}
