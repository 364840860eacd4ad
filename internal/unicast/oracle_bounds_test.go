package unicast

import (
	"fmt"
	"strings"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// testSnapshot builds a snapshot over n nodes from undirected edges
// {a, b, delay}; a node's arcs keep edge order, each names its reverse, and
// the peer address is the peer's ID + 1.
func testSnapshot(n int, edges ...[3]int64) *snapshot {
	adj := make([][]arc, n)
	for _, e := range edges {
		a, b := int32(e[0]), int32(e[1])
		ab, ba := uint16(len(adj[a])), uint16(len(adj[b]))
		adj[a] = append(adj[a], arc{to: b, delay: e[2], hop: addr.IP(b + 1), back: ba})
		adj[b] = append(adj[b], arc{to: a, delay: e[2], hop: addr.IP(a + 1), back: ab})
	}
	s := &snapshot{}
	for _, as := range adj {
		s.start = append(s.start, int32(len(s.arcs)))
		s.arcs = append(s.arcs, as...)
	}
	s.start = append(s.start, int32(len(s.arcs)))
	return s
}

// solveOrPanic runs solve and returns the distances it left, and the panic
// message, "" when it returned.
func solveOrPanic(s *snapshot, src int32) (dist []int32, msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	var p paths
	s.solve(src, &p)
	return p.dist, ""
}

// TestSolveRefusesPathBeyondMetricBound: a distance that the solve's 32-bit
// cells cannot hold panics, naming the bound, instead of wrapping. Only a
// node whose shortest path is too long counts: a long arc offered first, or
// one leading back toward the source, does not.
func TestSolveRefusesPathBeyondMetricBound(t *testing.T) {
	dist, msg := solveOrPanic(testSnapshot(2, [3]int64{0, 1, MaxPathMetric}), 0)
	if msg != "" || dist[1] != MaxPathMetric {
		t.Errorf("a path of exactly MaxPathMetric: dist %v, panic %q", dist, msg)
	}
	if _, msg := solveOrPanic(testSnapshot(2, [3]int64{0, 1, MaxPathMetric + 1}), 0); !strings.Contains(msg, fmt.Sprint(MaxPathMetric)) {
		t.Errorf("a path one µs beyond MaxPathMetric: panic %q, want one naming %d", msg, MaxPathMetric)
	}
	// Node 1's direct arc is too long, the detour through 2 is not.
	dist, msg = solveOrPanic(testSnapshot(3, [3]int64{0, 1, MaxPathMetric + 1}, [3]int64{0, 2, 1}, [3]int64{2, 1, 1}), 0)
	if msg != "" || dist[1] != 2 {
		t.Errorf("detour around a too-long arc: dist %v, panic %q", dist, msg)
	}
	// Relaxing 1's arc back to the source sums past the bound; 0 is settled.
	dist, msg = solveOrPanic(testSnapshot(2, [3]int64{0, 1, MaxPathMetric/2 + 1}), 0)
	if msg != "" || dist[1] != MaxPathMetric/2+1 {
		t.Errorf("an arc back to the source: dist %v, panic %q", dist, msg)
	}
}

// TestNodeArcBound: a tree names a node's parent by a 16-bit offset among
// the node's own arcs, so a node may have MaxArcs of them and no more. Among
// MaxArcs parallel links whose addresses fall with the link's number, the
// last, with the lowest address, is the neighbour's parent and first hop in
// the root's tree; it is the neighbour's arc at the largest offset a tree
// holds. One more link refuses the snapshot, naming the bound.
func TestNodeArcBound(t *testing.T) {
	parallel := func(k int) (*netsim.Network, *netsim.Node, *netsim.Node) {
		net := netsim.NewNetwork()
		r0, r1 := net.AddNode("r0"), net.AddNode("r1")
		for i := 0; i < k; i++ {
			a := uint32(addr.V4(10, 0, 0, 0)) + uint32(2*(k-i))
			net.Connect(net.AddIface(r0, addr.IP(a)), net.AddIface(r1, addr.IP(a+1)), netsim.Millisecond)
		}
		return net, r0, r1
	}
	net, r0, r1 := parallel(MaxArcs)
	o := NewOracle(net)
	st := o.Tree(r0)
	out, in, ok := st.Parent(r1)
	if !ok || out != r0.Ifaces[MaxArcs-1] || in != r1.Ifaces[MaxArcs-1] || st.tree[r1.ID] != MaxArcs-1 {
		t.Errorf("%d parallel links: r1 hangs off %v to %v (offset %d), want %v to %v (offset %d)",
			MaxArcs, out, in, st.tree[r1.ID], r0.Ifaces[MaxArcs-1], r1.Ifaces[MaxArcs-1], MaxArcs-1)
	}
	if d, first := st.snap.climb(st.tree, int32(r0.ID), int32(r1.ID)); d != int64(netsim.Millisecond) || st.snap.arcs[first].ifc != out {
		t.Errorf("%d parallel links: r1 climbs to %d µs over arc %d, want %d µs over %v", MaxArcs, d, first, netsim.Millisecond, out)
	}
	net, _, _ = parallel(MaxArcs + 1)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, fmt.Sprint(MaxArcs)) {
			t.Errorf("%d parallel links: panic %q, want one naming %d", MaxArcs+1, msg, MaxArcs)
		}
	}()
	NewOracle(net)
}
