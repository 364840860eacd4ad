package mospf

import (
	"slices"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/unicast"
)

// lsaRouter returns router 0 of a two-router domain and its interface toward
// router 1, the arrival interface for hand-built LSAs.
func lsaRouter() (*Router, *netsim.Iface) {
	net := netsim.NewNetwork()
	na, nb := net.AddNode("a"), net.AddNode("b")
	ia := net.AddIface(na, addr.V4(10, 0, 0, 1))
	net.Connect(ia, net.AddIface(nb, addr.V4(10, 0, 0, 2)), netsim.Millisecond)
	return New(na, NewTrees(unicast.NewOracle(net))), ia
}

// receive hands r one LSA through the wire path: marshal, then handleLSA's
// decode into the reused scratch r.dec.
func receive(r *Router, in *netsim.Iface, lsa membershipLSA) {
	r.handleLSA(in, packet.New(addr.V4(10, 0, 0, 2), addr.AllRouters, packet.ProtoMOSPF, lsa.marshal()))
}

// TestUnsortedRepeatedLSAStoresEachGroupOnce: the wire does not promise a
// sorted or duplicate-free group list, and a row is binary-searched, so
// install must sort and deduplicate. The counts are the distinct groups, as
// the per-origin group set gave them.
func TestUnsortedRepeatedLSAStoresEachGroupOnce(t *testing.T) {
	r, in := lsaRouter()
	g1, g2, g3 := addr.GroupForIndex(1), addr.GroupForIndex(2), addr.GroupForIndex(3)
	receive(r, in, membershipLSA{Origin: 1, Seq: 1, Groups: []addr.IP{g3, g1, g3, g2, g1}})
	if got := r.MembershipRows(); got != 3 {
		t.Errorf("MembershipRows = %d, want 3", got)
	}
	if got := r.StateCount(); got != 3 {
		t.Errorf("StateCount = %d, want 3", got)
	}
	for _, g := range []addr.IP{g1, g2, g3} {
		if got := r.memberRouters(g); !slices.Equal(got, []int{1}) {
			t.Errorf("memberRouters(%v) = %v, want [1]", g, got)
		}
	}
	if got := r.memberRouters(addr.GroupForIndex(4)); len(got) != 0 {
		t.Errorf("memberRouters of an unlisted group = %v, want none", got)
	}
}

// TestBackToBackLSAsKeepDistinctRows: both LSAs decode into the same scratch,
// so a row aliasing r.dec.Groups would read the second LSA's groups.
func TestBackToBackLSAsKeepDistinctRows(t *testing.T) {
	r, in := lsaRouter()
	g1, g2, g3 := addr.GroupForIndex(1), addr.GroupForIndex(2), addr.GroupForIndex(3)
	receive(r, in, membershipLSA{Origin: 1, Seq: 1, Groups: []addr.IP{g1}})
	receive(r, in, membershipLSA{Origin: 2, Seq: 1, Groups: []addr.IP{g3, g2}})
	for g, want := range map[addr.IP][]int{g1: {1}, g2: {2}, g3: {2}} {
		if got := r.memberRouters(g); !slices.Equal(got, want) {
			t.Errorf("memberRouters(%v) = %v, want %v", g, got, want)
		}
	}
	if got := r.MembershipRows(); got != 3 {
		t.Errorf("MembershipRows = %d, want 3", got)
	}
}
