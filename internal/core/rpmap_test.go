package core

import (
	"cmp"
	"maps"
	"reflect"
	"slices"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimmsg"
	"pim/internal/unicast"
)

// TestRPOverlayIsPerRouter: two routers built from one RPMapping share it
// read-only. What one router learns at run time — SetRPMapping, a host's
// RPMap, the RP named by a (*,G) join — shadows the configuration on that
// router only, Stop/Restart drops it, and the RP-reports it floods are those
// a router holding its own merged copy of the table would flood.
func TestRPOverlayIsPerRouter(t *testing.T) {
	net := netsim.NewNetwork()
	na, nb := net.AddNode("a"), net.AddNode("b")
	ia := net.AddIface(na, addr.V4(10, 0, 0, 1))
	ib := net.AddIface(nb, addr.V4(10, 0, 0, 2))
	net.Connect(ia, ib, netsim.Millisecond)
	// Two unlinked interfaces give a the RP addresses A1 and A2.
	a1, a2 := addr.V4(10, 9, 1, 1), addr.V4(10, 9, 2, 1)
	net.AddIface(na, a1)
	net.AddIface(na, a2)
	x, b := addr.V4(10, 9, 9, 9), ib.Addr
	oracle := unicast.NewOracle(net)

	g := func(i int) addr.IP { return addr.GroupForIndex(i) }
	config := map[addr.IP][]addr.IP{g(1): {a1}, g(2): {a2, x}, g(3): {x}, g(5): {}}
	pristine := map[addr.IP][]addr.IP{}
	for k, v := range config {
		pristine[k] = slices.Clone(v)
	}
	cfg := Config{RPMapping: config, AdvertiseRPMapping: true}
	ra, rb := New(na, cfg, oracle.RouterFor(na)), New(nb, cfg, oracle.RouterFor(nb))
	ra.Start()
	rb.Start()
	net.Sched.RunUntil(netsim.Second)

	ra.SetRPMapping(g(3), []addr.IP{a2})
	ra.SetRPMapping(g(1), []addr.IP{x})
	ra.LearnRPMap(g(6), []addr.IP{a1})
	ra.LearnRPMap(g(2), []addr.IP{x})  // configured: kept
	ra.LearnRPMap(g(5), []addr.IP{a1}) // configured, even if empty: kept
	ra.joinShared(ia, g(4), b, ra.Cfg.holdTime())
	ra.joinShared(ia, g(2), b, ra.Cfg.holdTime()) // configured: not learned

	// merged is the table a router copying the configuration would hold now.
	merged := map[addr.IP][]addr.IP{g(1): {x}, g(2): {a2, x}, g(3): {a2}, g(4): {b}, g(5): {}, g(6): {a1}}
	for i := 1; i <= 7; i++ {
		if got, want := ra.RPsFor(g(i)), nonEmpty(merged[g(i)]); !slices.Equal(got, want) {
			t.Errorf("a: RPsFor(G%d) = %v, want %v", i, got, want)
		}
		if got, want := rb.RPsFor(g(i)), nonEmpty(pristine[g(i)]); !slices.Equal(got, want) {
			t.Errorf("b: RPsFor(G%d) = %v, want the configured %v", i, got, want)
		}
	}
	if len(rb.rpMap) != 0 {
		t.Errorf("b learned %v from a's run-time changes", rb.rpMap)
	}
	if !maps.EqualFunc(config, pristine, slices.Equal) {
		t.Errorf("configuration changed: %v, was %v", config, pristine)
	}

	var got []pimmsg.RPReport
	net.Trace = func(ev netsim.TraceEvent) {
		if ev.From.Node != na || ev.Pkt.Protocol != packet.ProtoPIM {
			return
		}
		if typ, body, err := pimmsg.Open(ev.Pkt.Payload); err == nil && typ == pimmsg.TypeRPReport {
			rep, err := pimmsg.UnmarshalRPReport(body)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, pimmsg.RPReport{RP: rep.RP, Groups: slices.Clone(rep.Groups)})
		}
	}
	ra.originateRPReport()
	net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Millisecond)
	net.Trace = nil
	if want := refRPReports(na, merged); !reflect.DeepEqual(got, want) {
		t.Errorf("RP-reports = %v, want %v", got, want)
	}

	ra.Restart()
	for i := 1; i <= 7; i++ {
		if got, want := ra.RPsFor(g(i)), nonEmpty(pristine[g(i)]); !slices.Equal(got, want) {
			t.Errorf("a after Restart: RPsFor(G%d) = %v, want the configured %v", i, got, want)
		}
	}
}

// refRPReports is the copy-based reference for originateRPReport: from one
// merged group→RP table, one report per RP address nd owns, in address
// order, each listing its groups in order.
func refRPReports(nd *netsim.Node, merged map[addr.IP][]addr.IP) []pimmsg.RPReport {
	served := map[addr.IP][]addr.IP{}
	for g, rps := range merged {
		for _, rp := range rps {
			if nd.OwnsAddr(rp) {
				served[rp] = append(served[rp], g)
			}
		}
	}
	var out []pimmsg.RPReport
	for rp, groups := range served {
		slices.Sort(groups)
		out = append(out, pimmsg.RPReport{RP: rp, Groups: groups})
	}
	slices.SortFunc(out, func(a, b pimmsg.RPReport) int { return cmp.Compare(a.RP, b.RP) })
	return out
}

// nonEmpty is RPsFor's view of a candidate list: an empty one reads as none.
func nonEmpty(rps []addr.IP) []addr.IP {
	if len(rps) == 0 {
		return nil
	}
	return rps
}
