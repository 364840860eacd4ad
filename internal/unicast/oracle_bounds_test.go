package unicast

import (
	"fmt"
	"strings"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// testSnapshot builds a snapshot over n nodes from undirected edges
// {a, b, delay}; a node's arcs keep edge order, each names its reverse, the
// peer address is the peer's ID + 1, and the cell width is build's.
func testSnapshot(n int, edges ...[3]int64) *snapshot {
	adj := make([][]arc, n)
	for _, e := range edges {
		a, b := int32(e[0]), int32(e[1])
		ab, ba := uint16(len(adj[a])), uint16(len(adj[b]))
		adj[a] = append(adj[a], arc{to: b, delay: e[2], hop: addr.IP(b + 1), back: ba})
		adj[b] = append(adj[b], arc{to: a, delay: e[2], hop: addr.IP(a + 1), back: ab})
	}
	s := &snapshot{}
	var most int32
	for _, as := range adj {
		s.start = append(s.start, int32(len(s.arcs)))
		s.arcs = append(s.arcs, as...)
		most = max(most, int32(len(as)))
	}
	s.start = append(s.start, int32(len(s.arcs)))
	s.wlog = cellLog(most)
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

// TestNodeArcBound: a tree names a node's parent by its offset among the
// node's own arcs, in a cell of the narrowest of 1, 2, 4, 8 and 16 bits
// whose all-ones value, noParent, is no offset; so a node may have MaxArcs
// arcs and no more. Among k parallel links whose addresses fall with the
// link's number, the last, with the lowest address, is the neighbour's
// parent and first hop in the root's tree: its arc at the largest offset,
// k−1. At each width boundary that is the largest offset a cell holds, or
// the smallest that needs the next width. One more link than MaxArcs
// refuses the snapshot, naming the bound.
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
	for _, c := range []struct{ k, width int }{
		{1, 1}, {2, 2}, {3, 2}, {4, 4}, {15, 4}, {16, 8}, {255, 8}, {256, 16}, {MaxArcs, 16},
	} {
		net, r0, r1 := parallel(c.k)
		o := NewOracle(net)
		st := o.Tree(r0)
		if w := st.snap.width(); w != c.width {
			t.Errorf("%d parallel links: %d-bit cells, want %d", c.k, w, c.width)
		}
		if root := st.snap.cell(st.tree, int32(r0.ID)); root != st.snap.noParent() {
			t.Errorf("%d parallel links: the root's cell is %d, want noParent", c.k, root)
		}
		last := c.k - 1
		out, in, ok := st.Parent(r1)
		if cell := st.snap.cell(st.tree, int32(r1.ID)); !ok || out != r0.Ifaces[last] || in != r1.Ifaces[last] || cell != uint64(last) {
			t.Errorf("%d parallel links: r1 hangs off %v to %v (cell %d), want %v to %v (offset %d)",
				c.k, out, in, cell, r0.Ifaces[last], r1.Ifaces[last], last)
		}
		if d, first := st.snap.climb(st.tree, int32(r0.ID), int32(r1.ID)); d != int64(netsim.Millisecond) || first == noArc || st.snap.arcs[first].ifc != r0.Ifaces[last] {
			t.Errorf("%d parallel links: r1 climbs to %d µs over arc %d, want %d µs over %v", c.k, d, first, netsim.Millisecond, r0.Ifaces[last])
		}
	}
	net, _, _ := parallel(MaxArcs + 1)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, fmt.Sprint(MaxArcs)) {
			t.Errorf("%d parallel links: panic %q, want one naming %d", MaxArcs+1, msg, MaxArcs)
		}
	}()
	NewOracle(net)
}
