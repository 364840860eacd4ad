package scenario

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pim/internal/addr"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/topology"
)

func square() *topology.Graph {
	g := topology.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 2)
	return g
}

func TestBuildWiring(t *testing.T) {
	g := square()
	sim := Build(g)
	if len(sim.Routers) != 4 || len(sim.EdgeLinks) != 4 {
		t.Fatalf("routers=%d links=%d", len(sim.Routers), len(sim.EdgeLinks))
	}
	// Each router has one interface per incident edge, in edge order.
	for i, nd := range sim.Routers {
		if got, want := len(nd.Ifaces), g.Degree(i); got != want {
			t.Errorf("router %d has %d ifaces, want %d", i, got, want)
		}
	}
	// Link delays scale by DelayUnit.
	if sim.EdgeLinks[1].Delay != 2*DelayUnit {
		t.Errorf("edge 1 delay = %v", sim.EdgeLinks[1].Delay)
	}
	// Addressing: distinct /24 per link.
	seen := map[addr.Prefix]bool{}
	for _, l := range sim.EdgeLinks {
		p := addr.MustPrefix(l.Ifaces[0].Addr, 24)
		if seen[p] {
			t.Errorf("duplicate link prefix %v", p)
		}
		seen[p] = true
		for _, ifc := range l.Ifaces {
			if !p.Contains(ifc.Addr) {
				t.Errorf("iface %v outside its link prefix %v", ifc.Addr, p)
			}
		}
	}
}

func TestAddHostCreatesLANOnceAndGrows(t *testing.T) {
	sim := Build(square())
	h1 := sim.AddHost(2)
	if lan := sim.HostLANs[2]; lan == nil || !lan.IsLAN() || len(lan.Ifaces) != 2 {
		t.Fatal("a one-host stub is not a LAN of the router and its host")
	}
	h2 := sim.AddHost(2)
	if sim.HostLANs[2] == nil {
		t.Fatal("no host LAN")
	}
	if h1.Iface.Link != sim.HostLANs[2] || h2.Iface.Link != sim.HostLANs[2] {
		t.Error("hosts not on the shared LAN")
	}
	if h1.Iface.Addr == h2.Iface.Addr {
		t.Error("duplicate host addresses")
	}
	if !sim.HostLANs[2].IsLAN() {
		t.Error("stub should be a true multi-access LAN")
	}
	if len(sim.Hosts[2]) != 2 {
		t.Errorf("Hosts[2] = %d", len(sim.Hosts[2]))
	}
}

// TestUnicastForAllModes: every substrate gives router 0 a route to router
// 2's host LAN. MOSPF reads its router-link state from the oracle alone, so
// deploying it before FinishUnicast, or over DV or LS, must refuse by naming
// the view it lacks rather than route over nothing; a script's recipe gets
// an error instead of the panic.
func TestUnicastForAllModes(t *testing.T) {
	mospfRefusal := func(sim *Sim) (msg string) {
		defer func() {
			if v := recover(); v != nil {
				msg = fmt.Sprint(v)
			}
		}()
		sim.Deploy(MOSPFMode)
		return ""
	}
	const refusal = "scenario: MOSPF reads its link-state view from the unicast oracle"
	for _, mode := range []UnicastMode{UseOracle, UseDV, UseLS} {
		sim := Build(square())
		sim.AddHost(0)
		sim.AddHost(2)
		if msg := mospfRefusal(sim); !strings.HasPrefix(msg, refusal) {
			t.Errorf("mode %d: MOSPF before FinishUnicast: panic %q, want %q", mode, msg, refusal)
		}
		sim.FinishUnicast(mode)
		if mode != UseOracle {
			if _, err := sim.DeployRecipe(Recipe{Protocol: "mospf"}); err == nil {
				t.Errorf("mode %d: the mospf recipe deployed without the oracle", mode)
			}
		}
		if msg, want := mospfRefusal(sim), mode != UseOracle; strings.HasPrefix(msg, refusal) != want || !want && msg != "" {
			t.Errorf("mode %d: MOSPF deploy panicked with %q, refusal wanted: %v", mode, msg, want)
		}
		sim.Run(sim.ConvergenceTime())
		uni := sim.UnicastFor(0)
		if uni == nil {
			t.Fatalf("mode %d: nil unicast view", mode)
		}
		if _, ok := uni.Lookup(HostLANAddr(2, 0)); !ok {
			t.Errorf("mode %d: router 0 has no route to router 2's host LAN", mode)
		}
	}
}

// TestHostLANsBeyond256Routers: routers r and r+256 used to share the host
// LAN 10.100.byte(r).0/24 — each saw the other's hosts as directly connected
// and the oracle listed two owners for one prefix; a free-placement
// 1000-router PIM-SM run delivered 141 600 of 153 600. With a member behind
// each, the LANs must differ, every packet from a third host must reach
// both, and every packet from the far one must reach the near one.
func TestHostLANsBeyond256Routers(t *testing.T) {
	g := topology.Random(topology.GenConfig{Nodes: 320, Degree: 3, MinDelay: 1, MaxDelay: 5}, rand.New(rand.NewSource(5)))
	sim := Build(g)
	const r = 17
	near, far, third := sim.AddHost(r), sim.AddHost(r+256), sim.AddHost(100)
	if a, b := addr.MustPrefix(near.Iface.Addr, 24), addr.MustPrefix(far.Iface.Addr, 24); a == b {
		t.Errorf("host LANs of routers %d and %d share prefix %v", r, r+256, a)
	}
	sim.FinishUnicast(UseOracle)
	group := addr.GroupForIndex(0)
	sim.Deploy(SparseMode, WithRPMapping(map[addr.IP][]addr.IP{group: {sim.RouterAddr(200)}}))
	sim.Run(2 * netsim.Second)
	near.Join(group)
	far.Join(group)
	sim.Run(2 * netsim.Second)
	const packets = 10
	send := func(from *igmp.Host) {
		for i := 0; i < packets; i++ {
			SendData(from, group, 64)
			sim.Run(200 * netsim.Millisecond)
		}
		sim.Run(netsim.Second)
	}
	send(third)
	if n, f := near.Received[group], far.Received[group]; n != packets || f != packets {
		t.Errorf("members behind routers %d and %d received %d and %d of a third host's %d packets", r, r+256, n, f, packets)
	}
	send(far)
	if got := near.Received[group] - packets; got != packets {
		t.Errorf("member behind router %d received %d of the %d packets sent from behind router %d", r, got, packets, r+256)
	}
}

// TestAddressHandedOutTwicePanics: the 254th host of a stub LAN would take
// the router's own .254; the plan must refuse, naming both interfaces.
func TestAddressHandedOutTwicePanics(t *testing.T) {
	sim := Build(square())
	for h := 0; h < 253; h++ {
		sim.AddHost(0)
	}
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{"10.100.0.254", "r0/if2", "h0.253/if0"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not mention %s", msg, want)
			}
		}
	}()
	sim.AddHost(0)
}

// TestAddHostAfterFinishUnicastPanics pins the precondition AddHost's comment
// states: the substrates take the interface set as final, and a host added
// later used to get a nil oracle view and a LAN missing from every table.
func TestAddHostAfterFinishUnicastPanics(t *testing.T) {
	for _, mode := range []UnicastMode{UseOracle, UseDV, UseLS} {
		sim := Build(square())
		sim.AddHost(0)
		sim.FinishUnicast(mode)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "AddHost after FinishUnicast") {
					t.Errorf("mode %d: AddHost after FinishUnicast: recovered %q", mode, msg)
				}
			}()
			sim.AddHost(1)
		}()
	}
}

// TestOracleHostsNeverSolve: the oracle computes a shortest-path tree only
// for a node that asks it something (or, across a link change, has route
// listeners to decide for). Across join, data, a link failure and its repair
// that is routers only — never a host.
func TestOracleHostsNeverSolve(t *testing.T) {
	for _, p := range []Protocol{SparseMode, DenseMode} {
		sim := Build(square())
		member, sender := sim.AddHost(0), sim.AddHost(2)
		sim.FinishUnicast(UseOracle)
		group := addr.GroupForIndex(0)
		sim.Deploy(p, WithRPMapping(map[addr.IP][]addr.IP{group: {sim.RouterAddr(1)}}))
		sim.Run(2 * netsim.Second)
		member.Join(group)
		for _, up := range []bool{true, false, true} {
			sim.Net.SetLinkUp(sim.EdgeLinks[0], up)
			sim.Run(2 * netsim.Second)
			SendData(sender, group, 64)
			sim.Run(netsim.Second)
		}
		if member.Received[group] != 3 {
			t.Errorf("%v: member received %d of 3 packets", p, member.Received[group])
		}
		routers := 0
		for _, nd := range sim.Net.Nodes {
			if !sim.oracle.Solved(nd) {
				continue
			}
			if nd.ID >= len(sim.Routers) {
				t.Errorf("%v: %s, not a router, holds a shortest-path tree", p, nd.Name)
			}
			routers++
		}
		if routers == 0 {
			t.Errorf("%v: no router ever solved", p)
		}
	}
}

func TestSendDataCarriesTimestamp(t *testing.T) {
	sim := Build(square())
	h := sim.AddHost(0)
	sim.FinishUnicast(UseOracle)
	var got *packet.Packet
	sim.Routers[0].Handle(packet.ProtoUDP, netsim.HandlerFunc(
		func(in *netsim.Iface, pkt *packet.Packet) { got = pkt }))
	sim.Run(50 * netsim.Millisecond)
	SendData(h, addr.GroupForIndex(0), 4) // below 8: padded
	sim.Run(50 * netsim.Millisecond)
	if got == nil {
		t.Fatal("no packet at router")
	}
	if len(got.Payload) < 8 {
		t.Fatalf("payload %d bytes", len(got.Payload))
	}
	d, ok := Latency(sim.Net.Sched.Now(), got)
	if !ok || d <= 0 || d > 100*netsim.Millisecond {
		t.Errorf("latency = %v, %v", d, ok)
	}
}

// TestSendDataZeroAlloc pins host data origination at zero allocations: the
// payload is built in the host's scratch, and Send copies it into a pooled
// frame that the router's handler consumes.
func TestSendDataZeroAlloc(t *testing.T) {
	sim := Build(square())
	h := sim.AddHost(0)
	sim.FinishUnicast(UseOracle)
	got := 0
	sim.Routers[0].Handle(packet.ProtoUDP, netsim.HandlerFunc(
		func(in *netsim.Iface, pkt *packet.Packet) { got++ }))
	g := addr.GroupForIndex(0)
	cycle := func() {
		SendData(h, g, 64)
		sim.Run(10 * netsim.Millisecond)
	}
	for i := 0; i < 1500; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm SendData: %.2f allocs, want 0", allocs)
	}
	if got != 1601 {
		t.Errorf("router received %d data packets, want 1601", got)
	}
}

func TestLatencyRejectsGarbage(t *testing.T) {
	if _, ok := Latency(100, &packet.Packet{Payload: []byte{1, 2}}); ok {
		t.Error("short payload accepted")
	}
	// Future timestamp: rejected.
	p := &packet.Packet{Payload: []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}}
	if _, ok := Latency(100, p); ok {
		t.Error("future timestamp accepted")
	}
}

// TestDeterminism: two identical simulations produce byte-identical
// statistics — the property all experiment reproducibility rests on.
func TestDeterminism(t *testing.T) {
	run := func() (int64, int64, int) {
		g := topology.New(5)
		for i := 0; i < 4; i++ {
			g.AddEdge(i, i+1, 1)
		}
		g.AddEdge(0, 4, 3)
		sim := Build(g)
		r := sim.AddHost(0)
		s := sim.AddHost(3)
		sim.FinishUnicast(UseOracle)
		group := addr.GroupForIndex(0)
		dep := sim.Deploy(SparseMode, WithRPMapping(map[addr.IP][]addr.IP{group: {sim.RouterAddr(2)}}))
		sim.Run(2 * netsim.Second)
		r.Join(group)
		sim.Run(2 * netsim.Second)
		for i := 0; i < 10; i++ {
			SendData(s, group, 100)
			sim.Run(700 * netsim.Millisecond)
		}
		sim.Run(120 * netsim.Second)
		return sim.Net.Stats.Totals.DataPackets + sim.Net.Stats.Totals.ControlPackets,
			sim.Net.Stats.Totals.DataBytes + sim.Net.Stats.Totals.ControlBytes,
			dep.TotalState()
	}
	p1, b1, s1 := run()
	p2, b2, s2 := run()
	if p1 != p2 || b1 != b2 || s1 != s2 {
		t.Fatalf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", p1, b1, s1, p2, b2, s2)
	}
	if p1 == 0 {
		t.Fatal("empty run")
	}
}

func TestDeploymentAggregates(t *testing.T) {
	sim := Build(square())
	h := sim.AddHost(0)
	sim.FinishUnicast(UseOracle)
	group := addr.GroupForIndex(0)
	dep := sim.Deploy(SparseMode, WithRPMapping(map[addr.IP][]addr.IP{group: {sim.RouterAddr(2)}})).(*PIMDeployment)
	sim.Run(2 * netsim.Second)
	h.Join(group)
	sim.Run(2 * netsim.Second)
	if dep.TotalState() == 0 {
		t.Error("no aggregate state")
	}
	if dep.ControlMessages() == 0 {
		t.Error("no aggregate control messages")
	}
}

// TestGarbageTrafficNeverCrashesRouters blasts random payloads with every
// protocol number at a running PIM deployment: routers must ignore or
// error-count them, never panic, and the legitimate tree must keep working.
func newTestRand() *rand.Rand { return rand.New(rand.NewSource(31)) }

func TestGarbageTrafficNeverCrashesRouters(t *testing.T) {
	sim := Build(square())
	h := sim.AddHost(0)
	sender := sim.AddHost(2)
	sim.FinishUnicast(UseOracle)
	group := addr.GroupForIndex(0)
	sim.Deploy(SparseMode, WithRPMapping(map[addr.IP][]addr.IP{group: {sim.RouterAddr(2)}}))
	sim.Run(2 * netsim.Second)
	h.Join(group)
	sim.Run(2 * netsim.Second)

	rng := newTestRand()
	protos := []byte{packet.ProtoIGMP, packet.ProtoPIM, packet.ProtoPIMData,
		packet.ProtoUDP, packet.ProtoDVMRP, packet.ProtoCBT,
		packet.ProtoRIPSim, packet.ProtoLSSim, packet.ProtoMOSPF}
	for i := 0; i < 500; i++ {
		payload := make([]byte, rng.Intn(48))
		rng.Read(payload)
		nd := sim.Routers[rng.Intn(len(sim.Routers))]
		ifc := nd.Ifaces[rng.Intn(len(nd.Ifaces))]
		dsts := []addr.IP{addr.AllRouters, group, ifc.Addr, addr.V4(1, 2, 3, 4)}
		pkt := packet.New(addr.IP(rng.Uint32()), dsts[rng.Intn(len(dsts))],
			protos[rng.Intn(len(protos))], payload)
		pkt.TTL = byte(1 + rng.Intn(64))
		nd.LocalSend(ifc, pkt)
		sim.Run(10 * netsim.Millisecond)
	}
	// The tree still works after the garbage storm.
	SendData(sender, group, 64)
	sim.Run(netsim.Second)
	if h.Received[group] == 0 {
		t.Fatal("legitimate delivery broken after garbage traffic")
	}
}
