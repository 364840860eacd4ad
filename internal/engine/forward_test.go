package engine_test

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/cbt"
	"pim/internal/core"
	"pim/internal/dvmrp"
	"pim/internal/engine"
	"pim/internal/metrics"
	"pim/internal/mospf"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimdm"
	"pim/internal/unicast"
)

// TestDataForwardZeroAllocBeyondHeader pins, for each of the five multicast
// engines, one warm data packet through one forwarding router — state
// lookup, incoming-interface check, fan-out, Chassis.Forward (pooled transmit
// frame, counter, telemetry branch), delivery — at exactly one heap
// allocation: the header copy packet.Forwarded makes. Its doc comment says
// what removing that copy waits for; these pins then become 0.
//
// The router's if0 faces upstream, if1 is a LAN with two member hosts. Every
// other station is a bare node, so the router under test is the only one the
// packet meets.
func TestDataForwardZeroAllocBeyondHeader(t *testing.T) {
	g := addr.GroupForIndex(0)
	upAddr, remote := addr.V4(10, 0, 0, 2), addr.V4(10, 9, 9, 9)
	engines := []struct {
		name string
		src  addr.IP
		// start builds the router with a member of g on lan and returns its
		// chassis.
		start func(nd *netsim.Node, uni unicast.Router, lan *netsim.Iface) *engine.Chassis
	}{
		// A last-hop router on the shared tree, the RP upstream.
		{"core", remote, func(nd *netsim.Node, uni unicast.Router, lan *netsim.Iface) *engine.Chassis {
			r := core.New(nd, core.Config{RPMapping: map[addr.IP][]addr.IP{g: {upAddr}}, SPTPolicy: core.SwitchNever}, uni)
			r.Start()
			r.LocalJoin(lan, g)
			return &r.Chassis
		}},
		// The flood-and-prune and link-state engines route on the source: it
		// sits on if0's subnet.
		{"pimdm", upAddr, func(nd *netsim.Node, uni unicast.Router, lan *netsim.Iface) *engine.Chassis {
			r := pimdm.New(nd, pimdm.Config{}, uni)
			r.Start()
			r.LocalJoin(lan, g)
			return &r.Chassis
		}},
		{"dvmrp", upAddr, func(nd *netsim.Node, uni unicast.Router, lan *netsim.Iface) *engine.Chassis {
			r := dvmrp.New(nd, dvmrp.Config{}, uni)
			r.Start()
			r.LocalJoin(lan, g)
			return &r.Chassis
		}},
		{"mospf", upAddr, func(nd *netsim.Node, _ unicast.Router, lan *netsim.Iface) *engine.Chassis {
			r := mospf.New(nd, mospf.NewTrees(unicast.NewOracle(nd.Net)))
			r.Start()
			r.LocalJoin(lan, g)
			return &r.Chassis
		}},
		// The core of the group's tree, so a member puts it on-tree at once.
		{"cbt", remote, func(nd *netsim.Node, uni unicast.Router, lan *netsim.Iface) *engine.Chassis {
			r := cbt.New(nd, cbt.Config{CoreMapping: map[addr.IP]addr.IP{g: nd.Ifaces[0].Addr}}, uni)
			r.Start()
			r.LocalJoin(lan, g)
			return &r.Chassis
		}},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			net := netsim.NewNetwork()
			nd := net.AddNode("r")
			up := net.AddIface(nd, addr.V4(10, 0, 0, 1))
			lan := net.AddIface(nd, addr.V4(10, 0, 1, 1))
			net.Connect(up, net.AddIface(net.AddNode("up"), upAddr), netsim.Millisecond)
			net.ConnectLAN(netsim.Millisecond, lan,
				net.AddIface(net.AddNode("h1"), addr.V4(10, 0, 1, 2)),
				net.AddIface(net.AddNode("h2"), addr.V4(10, 0, 1, 3)))
			c := e.start(nd, unicast.NewOracle(net).RouterFor(nd), lan)
			net.Sched.RunUntil(netsim.Second)

			pkt := packet.New(e.src, g, packet.ProtoUDP, []byte("x"))
			cycle := func() {
				nd.LocalSend(up, pkt) // the engine's handler, as for an arrival on if0
				net.Sched.RunUntil(net.Sched.Now() + 2*netsim.Millisecond)
			}
			c.Metrics.Reset()
			for i := 0; i < 1500; i++ {
				cycle()
			}
			if n := c.Metrics.Get(metrics.DataForwarded); n != 1500 {
				t.Fatalf("%d forwards in 1500 packets, want one each (%v)", n, c.Metrics)
			}
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 1 {
				t.Errorf("warm data forward: %.2f allocs, want 1", allocs)
			}
		})
	}
}
