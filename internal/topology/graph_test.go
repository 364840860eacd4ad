package topology

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddEdgeAndQueries(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 3)
	g.AddEdge(2, 3, 1)
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 3) {
		t.Error("no edge 0-3 expected")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 1 {
		t.Errorf("degrees: %d %d", g.Degree(1), g.Degree(3))
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Neighbors(1) = %v", got)
	}
	if g.AvgDegree() != 1.5 {
		t.Errorf("AvgDegree = %v", g.AvgDegree())
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []func(){
		func() { New(2).AddEdge(0, 0, 1) },
		func() { New(2).AddEdge(0, 2, 1) },
		func() { New(2).AddEdge(-1, 1, 1) },
		func() { New(2).AddEdge(0, 1, 0) },
		func() { New(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestConnected(t *testing.T) {
	g := New(3)
	if g.Connected() {
		t.Error("3 isolated nodes reported connected")
	}
	g.AddEdge(0, 1, 1)
	if g.Connected() {
		t.Error("node 2 is isolated")
	}
	g.AddEdge(1, 2, 1)
	if !g.Connected() {
		t.Error("path graph should be connected")
	}
	if !New(0).Connected() || !New(1).Connected() {
		t.Error("trivial graphs are connected")
	}
}

func TestClone(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	c := g.Clone()
	c.AddEdge(1, 2, 2)
	if g.M() != 1 || c.M() != 2 {
		t.Errorf("clone not independent: g.M=%d c.M=%d", g.M(), c.M())
	}
}

func TestRandomGraphProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, deg := range []float64{3, 4, 5, 6, 7, 8} {
		for trial := 0; trial < 20; trial++ {
			g := Random(GenConfig{Nodes: 50, Degree: deg}, rng)
			if !g.Connected() {
				t.Fatalf("degree %v trial %d: disconnected", deg, trial)
			}
			want := int(50*deg/2 + 0.5)
			if g.M() != want {
				t.Fatalf("degree %v: M=%d want %d", deg, g.M(), want)
			}
			// Simple graph: no parallel edges or self loops.
			seen := map[[2]int]bool{}
			for _, e := range g.Edges() {
				if e.A == e.B {
					t.Fatal("self loop generated")
				}
				k := [2]int{e.A, e.B}
				if e.A > e.B {
					k = [2]int{e.B, e.A}
				}
				if seen[k] {
					t.Fatalf("parallel edge %v", k)
				}
				seen[k] = true
				if e.Delay != 1 {
					t.Fatalf("default delay should be 1, got %d", e.Delay)
				}
			}
		}
	}
}

func TestRandomGraphDelayRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := Random(GenConfig{Nodes: 30, Degree: 4, MinDelay: 5, MaxDelay: 9}, rng)
	for _, e := range g.Edges() {
		if e.Delay < 5 || e.Delay > 9 {
			t.Fatalf("delay %d out of [5,9]", e.Delay)
		}
	}
}

func TestRandomGraphDeterministic(t *testing.T) {
	a := Random(GenConfig{Nodes: 40, Degree: 5}, rand.New(rand.NewSource(99)))
	b := Random(GenConfig{Nodes: 40, Degree: 5}, rand.New(rand.NewSource(99)))
	if a.M() != b.M() {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range a.Edges() {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edge(i), b.Edge(i))
		}
	}
}

func TestRandomDegreeClamping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Degree too low: still a spanning tree.
	g := Random(GenConfig{Nodes: 10, Degree: 0.1}, rng)
	if g.M() != 9 || !g.Connected() {
		t.Errorf("low degree: M=%d connected=%v", g.M(), g.Connected())
	}
	// Degree too high: clamped to complete graph.
	g = Random(GenConfig{Nodes: 6, Degree: 50}, rng)
	if g.M() != 15 {
		t.Errorf("high degree: M=%d want 15", g.M())
	}
}

func TestPickDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	picked := PickDistinct(50, 10, rng)
	if len(picked) != 10 {
		t.Fatalf("len=%d", len(picked))
	}
	for i := 1; i < len(picked); i++ {
		if picked[i] <= picked[i-1] {
			t.Fatal("not strictly increasing / not distinct")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("picking 11 of 10 should panic")
		}
	}()
	PickDistinct(10, 11, rng)
}

func TestDijkstraLine(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	g.AddEdge(2, 3, 4)
	sp := g.Dijkstra(0)
	want := []int64{0, 2, 5, 9}
	for v, d := range want {
		if sp.Dist[v] != d {
			t.Errorf("Dist[%d] = %d, want %d", v, sp.Dist[v], d)
		}
	}
	if p := sp.PathTo(3); len(p) != 4 || p[0] != 0 || p[3] != 3 {
		t.Errorf("PathTo(3) = %v", p)
	}
}

func TestDijkstraPicksShorterOfTwoRoutes(t *testing.T) {
	//     1
	//   /   \
	//  0     3      0-1-3 cost 10, 0-2-3 cost 4
	//   \   /
	//     2
	g := New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 3, 5)
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 3, 2)
	sp := g.Dijkstra(0)
	if sp.Dist[3] != 4 {
		t.Errorf("Dist[3] = %d, want 4", sp.Dist[3])
	}
	if sp.Parent[3] != 2 {
		t.Errorf("Parent[3] = %d, want 2", sp.Parent[3])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	sp := g.Dijkstra(0)
	if sp.Dist[2] != Inf {
		t.Errorf("Dist[2] = %d, want Inf", sp.Dist[2])
	}
	if sp.PathTo(2) != nil {
		t.Error("PathTo unreachable should be nil")
	}
}

// Dijkstra distances satisfy the triangle inequality over edges and are
// symmetric on undirected graphs.
func TestDijkstraProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Random(GenConfig{Nodes: 20, Degree: 3, MinDelay: 1, MaxDelay: 10}, rng)
		d := g.AllPairs()
		for v := 0; v < g.N(); v++ {
			for u := 0; u < g.N(); u++ {
				if d[v][u] != d[u][v] {
					return false
				}
			}
		}
		for _, e := range g.Edges() {
			for v := 0; v < g.N(); v++ {
				if d[v][e.B] > d[v][e.A]+e.Delay || d[v][e.A] > d[v][e.B]+e.Delay {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSPTreeSpansMembersViaShortestPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := Random(GenConfig{Nodes: 50, Degree: 4, MinDelay: 1, MaxDelay: 5}, rng)
	members := PickDistinct(50, 10, rng)
	root := 0
	tr := g.SPTree(root, members)
	sp := g.Dijkstra(root)
	for _, m := range members {
		if !tr.InTree[m] {
			t.Fatalf("member %d not in tree", m)
		}
		// The tree path root->m must have shortest-path length.
		if got := tr.DistInTree(root, m); got != sp.Dist[m] {
			t.Fatalf("tree dist to %d = %d, want %d", m, got, sp.Dist[m])
		}
	}
	// Tree edge count == in-tree nodes - 1 (it is a tree).
	inTree := 0
	for _, ok := range tr.InTree {
		if ok {
			inTree++
		}
	}
	if tr.EdgeCount() != inTree-1 {
		t.Fatalf("edges=%d nodes=%d: not a tree", tr.EdgeCount(), inTree)
	}
	if len(tr.EdgeIndexes()) != tr.EdgeCount() {
		t.Fatal("EdgeIndexes length mismatch")
	}
}

func TestSPTreeNilMembersSpansAll(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	tr := g.SPTree(0, nil)
	for v := 0; v < 4; v++ {
		if !tr.InTree[v] {
			t.Fatalf("node %d missing", v)
		}
	}
}

func TestDistInTree(t *testing.T) {
	// Star: center 0, leaves 1..3, distinct delays.
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 2, 3)
	g.AddEdge(0, 3, 5)
	tr := g.SPTree(0, []int{1, 2, 3})
	if d := tr.DistInTree(1, 2); d != 5 {
		t.Errorf("dist(1,2)=%d want 5", d)
	}
	if d := tr.DistInTree(1, 3); d != 7 {
		t.Errorf("dist(1,3)=%d want 7", d)
	}
	if d := tr.DistInTree(2, 2); d != 0 {
		t.Errorf("dist(2,2)=%d want 0", d)
	}
	if d := tr.DistInTree(0, 3); d != 5 {
		t.Errorf("dist(0,3)=%d want 5", d)
	}
}

func TestDistInTreeOffTree(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	tr := g.SPTree(0, []int{1})
	if tr.InTree[2] {
		t.Fatal("node 2 should be off-tree")
	}
	if tr.DistInTree(0, 2) != Inf {
		t.Error("off-tree distance should be Inf")
	}
}

func TestPathToRoot(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	tr := g.SPTree(0, nil)
	p := tr.PathToRoot(3)
	want := []int{3, 2, 1, 0}
	if len(p) != 4 {
		t.Fatalf("path %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path %v, want %v", p, want)
		}
	}
	g2 := New(2)
	g2.AddEdge(0, 1, 1)
	tr2 := g2.SPTree(0, []int{0})
	if tr2.PathToRoot(1) != nil {
		t.Error("off-tree PathToRoot should be nil")
	}
}

func BenchmarkDijkstra50(b *testing.B) {
	g := Random(GenConfig{Nodes: 50, Degree: 6}, rand.New(rand.NewSource(5)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(i % 50)
	}
}

func BenchmarkRandomGraph50(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Random(GenConfig{Nodes: 50, Degree: 6}, rng)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := Random(GenConfig{Nodes: 20, Degree: 4, MinDelay: 1, MaxDelay: 9}, rand.New(rand.NewSource(4)))
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseEdgeList(&buf, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("N=%d M=%d, want %d %d", got.N(), got.M(), g.N(), g.M())
	}
	for i := range g.Edges() {
		if got.Edge(i) != g.Edge(i) {
			t.Fatalf("edge %d: %v vs %v", i, got.Edge(i), g.Edge(i))
		}
	}
}

func TestParseEdgeListDefaults(t *testing.T) {
	g, err := ParseEdgeList(strings.NewReader("# comment\n\n0 1\n1 2 5\n"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if g.Edge(0).Delay != 1 || g.Edge(1).Delay != 5 {
		t.Errorf("delays: %d %d", g.Edge(0).Delay, g.Edge(1).Delay)
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	// The last two name a node at or beyond the limit of 3: a file must not
	// size the graph by an index it would refuse anyway.
	for _, s := range []string{"0\n", "0 1 2 3\n", "x 1\n", "0 y\n", "0 1 z\n", "0 1 0\n", "0 0\n", "-1 2\n", "0 3\n", "0 2000000000\n"} {
		if _, err := ParseEdgeList(strings.NewReader(s), 3); err == nil {
			t.Errorf("ParseEdgeList(%q) succeeded", s)
		}
	}
}
