package topology

import "pim/internal/parallel"

// Inf is the distance reported for unreachable nodes.
const Inf = int64(1) << 62

// ShortestPaths holds single-source shortest path results: Dist[v] is the
// total delay from the source to v, Parent[v] the predecessor node on one
// shortest path (-1 for the source and unreachable nodes), and ParentEdge[v]
// the index of the edge from Parent[v] to v (-1 likewise).
type ShortestPaths struct {
	Source     int
	Dist       []int64
	Parent     []int
	ParentEdge []int
}

type spItem struct {
	node int
	dist int64
}

// SPSolver runs Dijkstra repeatedly over one graph while reusing its scratch
// state (visited marks and the priority-queue backing array) across runs, so
// the per-run cost is the three result slices — or nothing at all with
// SolveInto. The heap is a hand-rolled binary heap over spItem values: no
// container/heap interface boxing in the hot loop.
//
// A solver is not safe for concurrent use; parallel callers give each worker
// its own solver (see AllPairs).
type SPSolver struct {
	g    *Graph
	done []bool
	heap []spItem
}

// NewSolver returns a reusable Dijkstra solver for g.
func (g *Graph) NewSolver() *SPSolver {
	return &SPSolver{g: g, done: make([]bool, g.n), heap: make([]spItem, 0, g.n+len(g.edges))}
}

// Solve computes single-source shortest paths from src into a freshly
// allocated result (retainable by the caller; scratch state is still
// reused).
func (s *SPSolver) Solve(src int) *ShortestPaths {
	return s.SolveInto(nil, src)
}

// SolveInto is Solve reusing sp's slices when capacity allows; pass nil to
// allocate. Callers that keep no more than one result alive (AllPairs'
// row extraction, RPF lookups) reach zero allocations per run.
func (s *SPSolver) SolveInto(sp *ShortestPaths, src int) *ShortestPaths {
	g := s.g
	n := g.n
	if sp == nil {
		sp = &ShortestPaths{}
	}
	sp.Source = src
	sp.Dist = resizeInt64(sp.Dist, n)
	sp.Parent = resizeInt(sp.Parent, n)
	sp.ParentEdge = resizeInt(sp.ParentEdge, n)
	for i := 0; i < n; i++ {
		sp.Dist[i] = Inf
		sp.Parent[i] = -1
		sp.ParentEdge[i] = -1
	}
	sp.Dist[src] = 0

	if cap(s.done) < n {
		s.done = make([]bool, n)
	}
	done := s.done[:n]
	for i := range done {
		done[i] = false
	}

	h := s.heap[:0]
	h = heapPush(h, spItem{node: src})
	for len(h) > 0 {
		var it spItem
		it, h = heapPop(h)
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		for _, ei := range g.adj[v] {
			e := g.edges[ei]
			u := e.Other(v)
			nd := sp.Dist[v] + e.Delay
			if nd < sp.Dist[u] || (nd == sp.Dist[u] && sp.Parent[u] >= 0 && v < sp.Parent[u] && !done[u]) {
				sp.Dist[u] = nd
				sp.Parent[u] = v
				sp.ParentEdge[u] = ei
				h = heapPush(h, spItem{node: u, dist: nd})
			}
		}
	}
	s.heap = h[:0]
	return sp
}

func resizeInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func resizeInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// The heap routines mirror container/heap's sift order exactly (Push then
// up; Pop swaps root with last, sifts down, shrinks) with a dist-only
// comparison, so a solver pops nodes in the same order the previous
// container/heap implementation did — equal-distance tie handling, and with
// it every Parent/ParentEdge choice, is bit-for-bit preserved.

func heapPush(h []spItem, it spItem) []spItem {
	h = append(h, it)
	// Sift up.
	j := len(h) - 1
	for {
		i := (j - 1) / 2
		if i == j || h[i].dist <= h[j].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func heapPop(h []spItem) (spItem, []spItem) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	// Sift down within h[:n].
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2
		}
		if h[j].dist >= h[i].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[n], h[:n]
}

// Dijkstra computes single-source shortest paths from src. Ties are broken
// toward the lower-numbered parent node so results are deterministic, which
// matters for reproducible RPF checks across routers. Callers running many
// searches over the same graph should hold a NewSolver instead.
func (g *Graph) Dijkstra(src int) *ShortestPaths {
	return g.NewSolver().Solve(src)
}

// PathTo returns the node sequence from the source to dst (inclusive), or
// nil if dst is unreachable.
func (sp *ShortestPaths) PathTo(dst int) []int {
	if sp.Dist[dst] == Inf {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = sp.Parent[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// AllPairs computes shortest-path distances between every node pair by
// running Dijkstra from each node, fanned across every CPU. Suitable for the
// 50-node graphs of the Figure 2 experiments.
func (g *Graph) AllPairs() [][]int64 { return g.AllPairsWorkers(0) }

// AllPairsWorkers is AllPairs with an explicit worker count (0 = GOMAXPROCS,
// 1 = sequential). Each worker reuses one solver and one scratch result;
// output is identical for every worker count because row v depends only on
// the graph and v.
func (g *Graph) AllPairsWorkers(workers int) [][]int64 {
	d := make([][]int64, g.n)
	w := parallel.Workers(workers)
	solvers := make([]*SPSolver, w)
	scratch := make([]*ShortestPaths, w)
	parallel.ForWorker(g.n, workers, func(wk, v int) {
		if solvers[wk] == nil {
			solvers[wk] = g.NewSolver()
		}
		scratch[wk] = solvers[wk].SolveInto(scratch[wk], v)
		row := make([]int64, g.n)
		copy(row, scratch[wk].Dist)
		d[v] = row
	})
	return d
}

// Tree is a rooted tree extracted from a graph: Parent[v] is v's parent node
// (-1 for the root and for nodes not in the tree), ParentEdge[v] the graph
// edge index used, InTree[v] whether v belongs to the tree, and Depth[v] the
// number of tree edges between v and the root (meaningful only when
// InTree[v]).
type Tree struct {
	Root       int
	Parent     []int
	ParentEdge []int
	InTree     []bool
	Depth      []int
	g          *Graph
}

// SPTree builds the shortest-path tree from root spanning the given members:
// the union of one shortest path from root to each member. This is exactly
// the distribution tree that per-source multicast (and CBT's core-rooted
// tree) install. If members is nil the tree spans all reachable nodes.
func (g *Graph) SPTree(root int, members []int) *Tree {
	return g.SPTreeFromSP(g.Dijkstra(root), members)
}

// SPTreeFromSP is SPTree with a precomputed Dijkstra result, letting
// callers that evaluate many member sets from the same root (Figure 2's
// flow counting) amortize the search.
func (g *Graph) SPTreeFromSP(sp *ShortestPaths, members []int) *Tree {
	return g.SPTreeInto(nil, sp, members)
}

// SPTreeInto is SPTreeFromSP reusing t's storage when it is non-nil and
// sized for this graph (otherwise fresh storage is allocated). The Figure 2
// flow counting builds tens of thousands of member trees per trial; reusing
// one scratch Tree removes three slice allocations from each.
func (g *Graph) SPTreeInto(t *Tree, sp *ShortestPaths, members []int) *Tree {
	if t == nil || cap(t.Parent) < g.n {
		t = &Tree{
			Parent:     make([]int, g.n),
			ParentEdge: make([]int, g.n),
			InTree:     make([]bool, g.n),
			Depth:      make([]int, g.n),
		}
	}
	t.Root = sp.Source
	t.g = g
	t.Parent = t.Parent[:g.n]
	t.ParentEdge = t.ParentEdge[:g.n]
	t.InTree = t.InTree[:g.n]
	t.Depth = t.Depth[:g.n]
	for i := range t.Parent {
		t.Parent[i] = -1
		t.ParentEdge[i] = -1
		t.InTree[i] = false
	}
	include := func(v int) {
		// Climb to the first node already in the tree (or past the root),
		// then graft the chain below it, assigning depths top-down.
		anchor := v
		for anchor != -1 && !t.InTree[anchor] {
			anchor = sp.Parent[anchor]
		}
		base := -1 // so the root itself lands at depth 0
		if anchor != -1 {
			base = t.Depth[anchor]
		}
		chain := 0
		for w := v; w != anchor; w = sp.Parent[w] {
			chain++
		}
		for w := v; w != anchor; w = sp.Parent[w] {
			t.InTree[w] = true
			t.Parent[w] = sp.Parent[w]
			t.ParentEdge[w] = sp.ParentEdge[w]
			t.Depth[w] = base + chain
			chain--
		}
	}
	if members == nil {
		for v := 0; v < g.n; v++ {
			if sp.Dist[v] < Inf {
				include(v)
			}
		}
	} else {
		include(t.Root)
		for _, m := range members {
			if sp.Dist[m] < Inf {
				include(m)
			}
		}
	}
	return t
}

// EdgeCount returns the number of edges in the tree.
func (t *Tree) EdgeCount() int {
	c := 0
	for v := range t.Parent {
		if t.InTree[v] && t.Parent[v] != -1 {
			c++
		}
	}
	return c
}

// EdgeIndexes returns the graph edge indexes composing the tree.
func (t *Tree) EdgeIndexes() []int {
	var out []int
	for v := range t.ParentEdge {
		if t.InTree[v] && t.ParentEdge[v] != -1 {
			out = append(out, t.ParentEdge[v])
		}
	}
	return out
}

// DistInTree returns the delay of the unique tree path between a and b, or
// Inf if either is off-tree. Used by the Figure 2(a) delay measurement: the
// delay a receiver sees from a sender through a shared tree.
func (t *Tree) DistInTree(a, b int) int64 {
	if !t.InTree[a] || !t.InTree[b] {
		return Inf
	}
	// Lift the deeper endpoint to the other's depth, then climb both until
	// they meet at the lowest common ancestor. Depth makes the walk
	// allocation-free — the Figure 2(a) measurement calls this for every
	// member pair of every candidate core.
	var d int64
	for t.Depth[a] > t.Depth[b] {
		d += t.g.edges[t.ParentEdge[a]].Delay
		a = t.Parent[a]
	}
	for t.Depth[b] > t.Depth[a] {
		d += t.g.edges[t.ParentEdge[b]].Delay
		b = t.Parent[b]
	}
	for a != b {
		d += t.g.edges[t.ParentEdge[a]].Delay + t.g.edges[t.ParentEdge[b]].Delay
		a = t.Parent[a]
		b = t.Parent[b]
	}
	return d
}

// PathToRoot returns the node sequence from v up to the tree root.
func (t *Tree) PathToRoot(v int) []int {
	if !t.InTree[v] {
		return nil
	}
	var out []int
	for ; v != -1; v = t.Parent[v] {
		out = append(out, v)
	}
	return out
}
