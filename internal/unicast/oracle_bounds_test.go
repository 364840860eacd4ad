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
		adj[a] = append(adj[a], arc{to: b, delay: e[2], hop: addr.IP(b + 1)})
		adj[b] = append(adj[b], arc{to: a, delay: e[2], hop: addr.IP(a + 1)})
	}
	s := &snapshot{}
	for _, as := range adj {
		s.start = append(s.start, int32(len(s.arcs)))
		s.arcs = append(s.arcs, as...)
	}
	s.start = append(s.start, int32(len(s.arcs)))
	return s
}

// solveOrPanic runs solve and returns the panic message, "" when it returned.
func solveOrPanic(s *snapshot, src int32) (t tree, msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	return s.solve(src), ""
}

// TestSolveRefusesPathBeyondMetricBound: a distance that 32-bit tree cells
// cannot hold panics, naming the bound, instead of wrapping. Only a node
// whose shortest path is too long counts: a long arc offered first, or one
// leading back toward the source, does not.
func TestSolveRefusesPathBeyondMetricBound(t *testing.T) {
	tr, msg := solveOrPanic(testSnapshot(2, [3]int64{0, 1, MaxPathMetric}), 0)
	if msg != "" || tr.dist[1] != MaxPathMetric {
		t.Errorf("a path of exactly MaxPathMetric: dist %v, panic %q", tr.dist, msg)
	}
	if _, msg := solveOrPanic(testSnapshot(2, [3]int64{0, 1, MaxPathMetric + 1}), 0); !strings.Contains(msg, fmt.Sprint(MaxPathMetric)) {
		t.Errorf("a path one µs beyond MaxPathMetric: panic %q, want one naming %d", msg, MaxPathMetric)
	}
	// Node 1's direct arc is too long, the detour through 2 is not.
	tr, msg = solveOrPanic(testSnapshot(3, [3]int64{0, 1, MaxPathMetric + 1}, [3]int64{0, 2, 1}, [3]int64{2, 1, 1}), 0)
	if msg != "" || tr.dist[1] != 2 {
		t.Errorf("detour around a too-long arc: dist %v, panic %q", tr.dist, msg)
	}
	// Relaxing 1's arc back to the source sums past the bound; 0 is settled.
	tr, msg = solveOrPanic(testSnapshot(2, [3]int64{0, 1, MaxPathMetric/2 + 1}), 0)
	if msg != "" || tr.dist[1] != MaxPathMetric/2+1 {
		t.Errorf("an arc back to the source: dist %v, panic %q", tr.dist, msg)
	}
}

// TestSolveRefusesTooManyArcs: a source whose arcs a 16-bit offset cannot
// name panics, naming the bound. At exactly MaxArcs the last arc is still
// addressable, and wins the first hop when its peer address is lowest.
func TestSolveRefusesTooManyArcs(t *testing.T) {
	parallel := func(k int) *snapshot {
		s := &snapshot{start: []int32{0, int32(k), int32(2 * k)}}
		for i := 0; i < k; i++ {
			s.arcs = append(s.arcs, arc{to: 1, delay: 1, hop: addr.IP(k - i)})
		}
		for i := 0; i < k; i++ {
			s.arcs = append(s.arcs, arc{to: 0, delay: 1, hop: addr.IP(k + 1)})
		}
		return s
	}
	tr, msg := solveOrPanic(parallel(MaxArcs), 0)
	if msg != "" || tr.first[1] != MaxArcs-1 {
		t.Errorf("MaxArcs arcs: first hop offset %d, panic %q; want %d", tr.first[1], msg, MaxArcs-1)
	}
	if _, msg := solveOrPanic(parallel(MaxArcs+1), 0); !strings.Contains(msg, fmt.Sprint(MaxArcs)) {
		t.Errorf("MaxArcs+1 arcs: panic %q, want one naming %d", msg, MaxArcs)
	}
}
