package cbt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pim/internal/addr"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/unicast"
)

// fanoutNet is one router under test, r, with every kind of tree edge around
// it. The stations around r are bare nodes: the tests speak CBT to r by
// handing it crafted messages and watch what it transmits.
//
//	if0  point-to-point to p, the core (r's parent)
//	if1  LAN: routers c1 c2 c3 and a host
//	if2  point-to-point to router c4
//	if3  LAN: two hosts, no router
//	if4  LAN: routers c5 c6 and a host
type fanoutNet struct {
	net      *netsim.Network
	r        *Router
	g        addr.IP
	parent   addr.IP
	children []edge // every (interface, router address) a join can come from
}

func newFanoutNet() *fanoutNet {
	net := netsim.NewNetwork()
	nr := net.AddNode("r")
	f := &fanoutNet{net: net, g: addr.GroupForIndex(0)}
	// links[i] lists the far stations of r's interface i; the first
	// routers[i] of them are routers.
	links := [][]string{{"p"}, {"c1", "c2", "c3", "h1"}, {"c4"}, {"h3a", "h3b"}, {"c5", "c6", "h4"}}
	routers := []int{0, 3, 1, 0, 2}
	for i, names := range links {
		ifaces := []*netsim.Iface{net.AddIface(nr, addr.V4(10, 0, byte(i), 1))}
		for j, name := range names {
			ifc := net.AddIface(net.AddNode(name), addr.V4(10, 0, byte(i), byte(10+j)))
			ifaces = append(ifaces, ifc)
			if j < routers[i] {
				f.children = append(f.children, edge{ifaces[0], ifc.Addr})
			}
		}
		// Equal delays: r's transmissions of one instant arrive in send order.
		net.ConnectLAN(netsim.Millisecond, ifaces...)
	}
	f.parent = addr.V4(10, 0, 0, 10)
	// Retry and keepalive timers would only add control traffic; keep them
	// out of the run.
	const never = 1000 * netsim.Second
	cfg := Config{
		CoreMapping:  map[addr.IP]addr.IP{f.g: f.parent},
		EchoInterval: never, JoinRetry: never, AckRetry: never,
	}
	f.r = New(nr, cfg, unicast.NewOracle(net).RouterFor(nr))
	f.r.Start()
	return f
}

// warmFanout puts r on the tree with one parent, three children (two of them
// on one LAN) and one member LAN, and returns the cycle the allocation pin and
// BenchmarkCBTFanout measure: one data packet arriving from a LAN off the
// tree, so all five tree edges transmit, and its deliveries. The cycle has
// run 1500 times: timing-wheel slots and the frame pool fill on first touch.
func (f *fanoutNet) warmFanout() (cycle func()) {
	ifaces := f.r.Node.Ifaces
	f.r.LocalJoin(ifaces[3], f.g)
	f.ctrl(ifaces[0], f.parent, TypeJoinAck)
	for _, c := range []edge{f.children[1], f.children[0], f.children[3]} {
		f.ctrl(c.ifc, c.hop, TypeJoinReq)
	}
	pkt := packet.New(addr.V4(10, 9, 9, 9), f.g, packet.ProtoUDP, []byte("x"))
	cycle = func() {
		f.r.handleData(ifaces[4], pkt)
		f.net.Sched.RunUntil(f.net.Sched.Now() + 2*netsim.Millisecond)
	}
	for i := 0; i < 1500; i++ {
		cycle()
	}
	return cycle
}

// ctrl hands r one CBT message as sent by from onto in's link.
func (f *fanoutNet) ctrl(in *netsim.Iface, from addr.IP, typ byte) {
	m := &Message{Type: typ, Group: f.g, Core: f.parent}
	f.r.handleCtrl(in, packet.New(from, in.Addr, packet.ProtoCBT, m.Marshal()))
}

// sent is one transmission as the wire shows it: the sending interface and
// the stations the frame reached.
type sent struct {
	iface int
	to    []addr.IP
}

func (s sent) String() string { return fmt.Sprintf("if%d→%v", s.iface, s.to) }

// data hands r one data packet arriving on in and returns r's transmissions
// of it, in send order. Deliveries of one frame share the frame's bytes, which
// the payload aliases, so a change of payload address is a frame boundary (the
// header is the scheduler's, shared by every frame).
func (f *fanoutNet) data(in *netsim.Iface) []sent {
	var out []sent
	var last *byte
	f.net.Trace = func(ev netsim.TraceEvent) {
		if ev.From.Node != f.r.Node || ev.Pkt.Protocol != packet.ProtoUDP {
			return
		}
		if p := &ev.Pkt.Payload[0]; p != last {
			out = append(out, sent{iface: ev.From.Index})
			last = p
		}
		out[len(out)-1].to = append(out[len(out)-1].to, ev.To.Addr)
	}
	f.r.handleData(in, packet.New(addr.V4(10, 9, 9, 9), f.g, packet.ProtoUDP, []byte("x")))
	f.net.Sched.RunUntil(f.net.Sched.Now() + 2*netsim.Millisecond)
	f.net.Trace = nil
	return out
}

// onWire is what transmitting toward hop on ifc puts on the wire (netsim's
// delivery rule: on a LAN a non-zero next hop addresses one station).
func onWire(ifc *netsim.Iface, hop addr.IP) sent {
	s := sent{iface: ifc.Index}
	for _, to := range ifc.Link.Ifaces {
		if to != ifc && !(ifc.Link.IsLAN() && hop != 0 && to.Addr != hop) {
			s.to = append(s.to, to.Addr)
		}
	}
	return s
}

// refState is groupState as it was before the sorted edge lists: maps, put in
// order by sortedKeys/sortedAddrs on every walk. The differential test keeps
// one beside the router and moves it by the protocol's rules.
type refState struct {
	onTree    bool
	children  map[int]map[addr.IP]bool
	memberIfs map[int]*netsim.Iface
	pending   map[int]map[addr.IP]bool
}

func newRefState() *refState {
	return &refState{
		children:  map[int]map[addr.IP]bool{},
		memberIfs: map[int]*netsim.Iface{},
		pending:   map[int]map[addr.IP]bool{},
	}
}

func sortedKeys[V any](m map[int]V) []int {
	idxs := make([]int, 0, len(m))
	for idx := range m {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	return idxs
}

func sortedAddrs(set map[addr.IP]bool) []addr.IP {
	as := make([]addr.IP, 0, len(set))
	for a := range set {
		as = append(as, a)
	}
	slices.Sort(as)
	return as
}

func addToSet(m map[int]map[addr.IP]bool, idx int, a addr.IP) {
	if m[idx] == nil {
		m[idx] = map[addr.IP]bool{}
	}
	m[idx][a] = true
}

// fanout is the data walk handleData made over the maps: parent, children by
// (interface, address), then member LANs no earlier send covered. A nil or
// off-tree state relays toward the core.
func (st *refState) fanout(f *fanoutNet, in *netsim.Iface) []sent {
	var out []sent
	ifaces := f.r.Node.Ifaces
	send := func(ifc *netsim.Iface, hop addr.IP) {
		if ifc != in && ifc.Up() {
			out = append(out, onWire(ifc, hop))
		}
	}
	send(ifaces[0], f.parent)
	if st == nil || !st.onTree {
		return out
	}
	sentIface := map[int]bool{}
	for _, idx := range sortedKeys(st.children) {
		for _, child := range sortedAddrs(st.children[idx]) {
			send(ifaces[idx], child)
		}
		sentIface[idx] = true
	}
	for _, idx := range sortedKeys(st.memberIfs) {
		if !sentIface[idx] && idx != 0 {
			send(st.memberIfs[idx], 0)
		}
	}
	return out
}

// TestFanoutMatchesSortedMapWalk drives r and the map reference through one
// random sequence of joins, quits, parent acks, flushes, local joins and
// leaves and interface failures — interface 1 and 4 carry several children
// each, and members share interfaces with children and with the parent — and
// after every step requires r's data fan-out, from a random arrival
// interface, to be transmission for transmission what the sorted map walk
// gives.
func TestFanoutMatchesSortedMapWalk(t *testing.T) {
	f := newFanoutNet()
	ifaces := f.r.Node.Ifaces
	rng := rand.New(rand.NewSource(20))
	var ref *refState
	state := func() *refState {
		if ref == nil {
			ref = newRefState()
		}
		return ref
	}
	maybeQuit := func() {
		if len(ref.memberIfs) == 0 && len(ref.children) == 0 {
			ref = nil
		}
	}
	for step := 0; step < 4000; step++ {
		c := f.children[rng.Intn(len(f.children))]
		ifc := ifaces[rng.Intn(len(ifaces))]
		var op string
		switch n := rng.Intn(100); {
		case n < 30:
			op = fmt.Sprintf("join %v %v", c.ifc, c.hop)
			f.ctrl(c.ifc, c.hop, TypeJoinReq)
			if st := state(); st.onTree {
				addToSet(st.children, c.ifc.Index, c.hop)
			} else {
				addToSet(st.pending, c.ifc.Index, c.hop)
			}
		case n < 50:
			op = fmt.Sprintf("quit %v %v", c.ifc, c.hop)
			f.ctrl(c.ifc, c.hop, TypeQuit)
			if ref != nil {
				delete(ref.children[c.ifc.Index], c.hop)
				if len(ref.children[c.ifc.Index]) == 0 {
					delete(ref.children, c.ifc.Index)
				}
				maybeQuit()
			}
		case n < 65:
			op = fmt.Sprintf("local join %v", ifc)
			f.r.LocalJoin(ifc, f.g)
			state().memberIfs[ifc.Index] = ifc
		case n < 75:
			op = fmt.Sprintf("local leave %v", ifc)
			f.r.LocalLeave(ifc, f.g)
			if ref != nil {
				delete(ref.memberIfs, ifc.Index)
				maybeQuit()
			}
		case n < 88:
			op = "ack from parent"
			f.ctrl(ifaces[0], f.parent, TypeJoinAck)
			if ref != nil && !ref.onTree {
				ref.onTree = true
				for idx, set := range ref.pending {
					for child := range set {
						addToSet(ref.children, idx, child)
					}
				}
				ref.pending = map[int]map[addr.IP]bool{}
			}
		case n < 92:
			op = "flush from parent"
			f.ctrl(ifaces[0], f.parent, TypeFlush)
			if ref != nil {
				members := ref.memberIfs
				ref = nil
				if len(members) > 0 {
					state().memberIfs = members
				}
			}
		default:
			// The parent interface stays up: r needs its route to the core.
			ifc = ifaces[1+rng.Intn(len(ifaces)-1)]
			op = fmt.Sprintf("set %v up=%v", ifc, !ifc.Up())
			f.net.SetIfaceUp(ifc, !ifc.Up())
		}
		in := ifaces[rng.Intn(len(ifaces))]
		before := f.r.Metrics.Get(metrics.DataForwarded)
		got, want := f.data(in), ref.fanout(f, in)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d (%s), data in on %v:\n got %v\nwant %v", step, op, in, got, want)
		}
		if n := f.r.Metrics.Get(metrics.DataForwarded) - before; n != int64(len(want)) {
			t.Fatalf("step %d (%s), data in on %v: %d forwards counted, want %d", step, op, in, n, len(want))
		}
	}
}

// BenchmarkCBTFanout prices one data packet through an on-tree router with
// one parent, three children and one member LAN: five transmissions and
// their deliveries per op.
func BenchmarkCBTFanout(b *testing.B) {
	cycle := newFanoutNet().warmFanout()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
