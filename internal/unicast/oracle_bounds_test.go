package unicast

import (
	"fmt"
	"strings"
	"testing"

	"pim/internal/addr"
)

// testSnapshot builds a snapshot over n nodes from undirected edges
// {a, b, delay}; a node's arcs keep edge order, and the peer address is the
// peer's ID + 1.
func testSnapshot(n int, edges ...[3]int64) *snapshot {
	adj := make([][]arc, n)
	for _, e := range edges {
		a, b := int32(e[0]), int32(e[1])
		adj[a] = append(adj[a], arc{to: b, from: a, delay: e[2], hop: addr.IP(b + 1)})
		adj[b] = append(adj[b], arc{to: a, from: b, delay: e[2], hop: addr.IP(a + 1)})
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

// TestSolveTakesAnyArcCount: a tree names a parent by its global arc index,
// so a source may have more arcs than 16 bits count. Among 65 536 parallel
// arcs to one neighbour the last, with the lowest peer address, is both the
// neighbour's parent and its first hop.
func TestSolveTakesAnyArcCount(t *testing.T) {
	const k = 1 << 16
	s := &snapshot{start: []int32{0, k, 2 * k}}
	for i := 0; i < k; i++ {
		s.arcs = append(s.arcs, arc{to: 1, from: 0, delay: 1, hop: addr.IP(k - i)})
	}
	for i := 0; i < k; i++ {
		s.arcs = append(s.arcs, arc{to: 0, from: 1, delay: 1, hop: addr.IP(k + 1)})
	}
	var p paths
	tr := s.solve(0, &p)
	if tr[1] != k-1 || p.first[1] != k-1 || p.dist[1] != 1 {
		t.Errorf("%d parallel arcs: parent arc %d, first hop %d, dist %d; want %d, %d, 1", k, tr[1], p.first[1], p.dist[1], k-1, k-1)
	}
}
