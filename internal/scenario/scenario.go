// Package scenario assembles runnable simulations: it maps a topology.Graph
// onto netsim routers and links, hangs stub LANs with IGMP hosts off chosen
// routers, plugs in one of the three unicast routing substrates, and deploys
// a multicast protocol on every router. The experiment harnesses
// (cmd/pimsim, bench_test.go) and the examples all build on it.
//
// Address plan (matches unicast.LinkPrefix's /24-per-link convention):
//
//	backbone link i:  10.(200+i/256).(i%256).0/24, endpoints .1 and .2
//	host LAN at r:    10.(100+r/256).(r%256).0/24, router at .254, hosts at
//	                  .1, .2, ...
//
// The second octets are bytes, so the host block runs into the backbone block
// at MaxRouters (25 600) routers and the backbone block wraps into the host
// block at MaxLinks (39 936) links. Build refuses a larger graph, and Build
// and AddHost panic, naming both interfaces, rather than hand an address out
// twice. No node can then pass the unicast oracle's unicast.MaxArcs: a
// router's arcs are its backbone links plus its stub LAN's peers, and hosts
// end at .253, so that is at most MaxLinks + 253.
package scenario

import (
	"encoding/binary"
	"fmt"
	"slices"

	"pim/internal/addr"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimmsg"
	"pim/internal/topology"
	"pim/internal/unicast"
)

// UnicastMode selects the routing substrate beneath the multicast protocol.
type UnicastMode int

const (
	// UseOracle computes all tables from global knowledge (default).
	UseOracle UnicastMode = iota
	// UseDV runs the RIP-like distance-vector protocol on every router.
	UseDV
	// UseLS runs the OSPF-like link-state protocol on every router.
	UseLS
)

// DelayUnit converts the dimensionless edge delays of topology.Graph into
// simulated time.
const DelayUnit = netsim.Millisecond

// The address plan's limits: host LAN r takes second octet 100+r/256, which
// reaches the backbone block's 200 at router MaxRouters, and backbone link i
// takes 200+i/256, which wraps past 255 and reaches the host block's 100 at
// link MaxLinks.
const (
	MaxRouters = (200 - 100) * 256
	MaxLinks   = (256 - 200 + 100) * 256
)

// The plan's busiest node fits the oracle's per-node arc bound (see the
// package comment); the constant would overflow uint, and not compile, if
// it did not.
const _ uint = unicast.MaxArcs - (MaxLinks + 253)

// Sim is a wired simulation.
type Sim struct {
	Net   *netsim.Network
	Graph *topology.Graph
	// Routers[i] is the router for graph node i.
	Routers []*netsim.Node
	// EdgeLinks[e] is the netsim link realizing graph edge e.
	EdgeLinks []*netsim.Link
	// HostLANs[i] is router i's stub LAN (nil until a host is added).
	HostLANs []*netsim.Link
	// Hosts[i] are the IGMP hosts attached to router i.
	Hosts [][]*igmp.Host

	Mode UnicastMode
	// finished is set by FinishUnicast: the substrates take the interface set
	// as final, so AddHost refuses from then on.
	finished bool
	oracle   *unicast.Oracle
	dv       []*unicast.DV
	ls       []*unicast.LS
}

// CheckGraph reports why Build would refuse g: more routers or links than
// the address plan numbers, or delays long enough that a shortest path could
// exceed unicast.MaxPathMetric. A shortest path crosses at most N−1 backbone
// links, each once, plus a stub LAN at either end, so the N−1 longest delays
// bound it.
func CheckGraph(g *topology.Graph) error {
	if g.N() > MaxRouters || g.M() > MaxLinks {
		return fmt.Errorf("%d routers and %d links are beyond the address plan's %d and %d", g.N(), g.M(), MaxRouters, MaxLinks)
	}
	delays := make([]int64, 0, g.M())
	for _, e := range g.Edges() {
		delays = append(delays, e.Delay)
	}
	slices.Sort(delays)
	budget := unicast.MaxPathMetric/int64(DelayUnit) - 2 // two stub LAN hops
	for i, hops := len(delays)-1, g.N()-1; i >= 0 && hops > 0; i, hops = i-1, hops-1 {
		if budget -= delays[i]; budget < 0 {
			return fmt.Errorf("link delays allow a shortest path beyond the unicast oracle's %d µs", unicast.MaxPathMetric)
		}
	}
	return nil
}

// Build wires the graph into a network. Unicast routing is attached by
// FinishUnicast after hosts are added (the oracle needs the final
// interface set). It panics on a graph CheckGraph refuses.
func Build(g *topology.Graph) *Sim {
	if err := CheckGraph(g); err != nil {
		panic("scenario: " + err.Error())
	}
	net := netsim.NewNetwork()
	s := &Sim{
		Net:       net,
		Graph:     g,
		Routers:   make([]*netsim.Node, g.N()),
		EdgeLinks: make([]*netsim.Link, g.M()),
		HostLANs:  make([]*netsim.Link, g.N()),
		Hosts:     make([][]*igmp.Host, g.N()),
	}
	for i := range s.Routers {
		s.Routers[i] = net.AddNode(fmt.Sprintf("r%d", i))
	}
	for ei, e := range g.Edges() {
		a := s.addIface(s.Routers[e.A], linkAddr(ei, 1))
		b := s.addIface(s.Routers[e.B], linkAddr(ei, 2))
		s.EdgeLinks[ei] = net.Connect(a, b, netsim.Time(e.Delay)*DelayUnit)
	}
	return s
}

func linkAddr(edge, side int) addr.IP {
	return addr.V4(10, byte(200+edge/256), byte(edge%256), byte(side))
}

// HostLANAddr returns the address of the h-th host on router r's stub LAN.
func HostLANAddr(r, h int) addr.IP { return addr.V4(10, byte(100+r>>8), byte(r), byte(h+1)) }

// RouterLANAddr returns router r's address on its stub LAN.
func RouterLANAddr(r int) addr.IP { return addr.V4(10, byte(100+r>>8), byte(r), 254) }

// addIface attaches an interface to nd, refusing an address the plan has
// already handed out: two interfaces answering to one address silently lose
// one of them from every address-keyed lookup.
func (s *Sim) addIface(nd *netsim.Node, ip addr.IP) *netsim.Iface {
	if prev := s.Net.IfaceByAddr(ip); prev != nil {
		panic(fmt.Sprintf("scenario: address %v handed out twice: to %v and to %s/if%d", ip, prev, nd.Name, len(nd.Ifaces)))
	}
	return s.Net.AddIface(nd, ip)
}

// AddHost attaches a new IGMP host to router r's stub LAN, creating the LAN
// on first use. Must be called before FinishUnicast.
func (s *Sim) AddHost(r int) *igmp.Host {
	if s.finished {
		panic(fmt.Sprintf("scenario: AddHost after FinishUnicast (router %d)", r))
	}
	nd := s.Net.AddNode(fmt.Sprintf("h%d.%d", r, len(s.Hosts[r])))
	hif := s.addIface(nd, HostLANAddr(r, len(s.Hosts[r])))
	if s.HostLANs[r] == nil {
		// The stub is a LAN from its first host on, so §3.7 semantics
		// (multicast join/prune visibility) apply uniformly.
		rif := s.addIface(s.Routers[r], RouterLANAddr(r))
		s.HostLANs[r] = s.Net.ConnectLAN(DelayUnit, rif, hif)
	} else {
		// Join the existing LAN.
		lan := s.HostLANs[r]
		hif.Link = lan
		lan.Ifaces = append(lan.Ifaces, hif)
	}
	h := igmp.NewHost(nd, hif)
	s.Hosts[r] = append(s.Hosts[r], h)
	return h
}

// FinishUnicast attaches the chosen unicast substrate. For DV and LS the
// caller must afterwards run the scheduler long enough to converge (3×
// period is ample on these diameters).
func (s *Sim) FinishUnicast(mode UnicastMode) {
	s.Mode = mode
	s.finished = true
	switch mode {
	case UseOracle:
		s.oracle = unicast.NewOracle(s.Net)
	case UseDV:
		for _, nd := range s.Routers {
			d := unicast.NewDV(nd)
			d.Start()
			s.dv = append(s.dv, d)
		}
	case UseLS:
		for _, nd := range s.Routers {
			l := unicast.NewLS(nd)
			l.Start()
			s.ls = append(s.ls, l)
		}
	}
}

// UnicastFor returns router i's unicast routing view.
func (s *Sim) UnicastFor(i int) unicast.Router {
	switch s.Mode {
	case UseDV:
		return s.dv[i].Table()
	case UseLS:
		return s.ls[i].Table()
	default:
		return s.oracle.RouterFor(s.Routers[i])
	}
}

// ConvergenceTime returns how long the substrate needs before multicast
// protocols should start.
func (s *Sim) ConvergenceTime() netsim.Time {
	switch s.Mode {
	case UseDV:
		return 3 * unicast.DVDefaultPeriod
	case UseLS:
		return 2 * unicast.LSDefaultRefresh
	default:
		return 0
	}
}

// RouterAddr returns router i's primary (first-interface) address, used as
// its identifier and as an RP address when i hosts a rendezvous point.
func (s *Sim) RouterAddr(i int) addr.IP { return s.Routers[i].Addr() }

// MaxDataSize is the largest SendData payload every engine can carry: a data
// packet is wrapped at most once on its way — the sender's DR Register-
// encapsulates the whole datagram toward the RP (§3) — and the wrapped
// datagram must still fit the 16-bit total length of its own header.
const MaxDataSize = 0xFFFF - packet.HeaderLen - pimmsg.RegisterOverhead - packet.HeaderLen

// SendData injects one multicast data packet from the host onto its LAN.
// The first eight payload bytes carry the send timestamp so receivers can
// measure delivery latency (see Latency), so size is raised to 8 if smaller;
// a size above MaxDataSize panics in the simulator or at the first router
// that encapsulates it, and callers taking sizes from outside (the script's
// `send`) check the 8..MaxDataSize range themselves.
func SendData(h *igmp.Host, g addr.IP, size int) {
	if size < 8 {
		size = 8
	}
	// The host's scratch is free again once Send returns (it copies).
	b := slices.Grow(h.Enc.Buf[:0], size)[:size]
	clear(b)
	binary.BigEndian.PutUint64(b, uint64(h.Node.Sched().Now()))
	h.Enc.Buf = b
	h.Node.Send(h.Iface, h.Enc.Packet(h.Iface.Addr, g, packet.ProtoUDP, packet.DefaultTTL), 0)
}

// Latency extracts the one-way delay of a data packet sent with SendData.
func Latency(now netsim.Time, pkt *packet.Packet) (netsim.Time, bool) {
	if len(pkt.Payload) < 8 {
		return 0, false
	}
	sent := netsim.Time(binary.BigEndian.Uint64(pkt.Payload))
	if sent < 0 || sent > now {
		return 0, false
	}
	return now - sent, true
}

// Run advances the simulation by d.
func (s *Sim) Run(d netsim.Time) { s.Net.Sched.RunUntil(s.Net.Sched.Now() + d) }
