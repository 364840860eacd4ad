package scenario

import (
	"strings"
	"testing"

	"pim/internal/topology"
	"pim/internal/unicast"
)

// TestCheckGraphPathBound: Build refuses link delays that could carry a
// shortest path past the unicast oracle's 32-bit path metric, and takes them
// up to it. At the largest delays accepted, the longest route there is —
// host to host across every link — resolves with its exact metric.
func TestCheckGraphPathBound(t *testing.T) {
	budget := unicast.MaxPathMetric/int64(DelayUnit) - 2 // ms, less two stub LANs
	line := func(extra int64) *topology.Graph {
		g := topology.New(3)
		g.AddEdge(0, 1, budget/2)
		g.AddEdge(1, 2, budget-budget/2+extra)
		return g
	}
	if err := CheckGraph(line(1)); err == nil || !strings.Contains(err.Error(), "2147483647") {
		t.Errorf("one ms over: CheckGraph = %v, want an error naming the bound", err)
	}
	// A triangle's simple paths cross two of its three links, so the third
	// does not count against the bound.
	tri := line(0)
	tri.AddEdge(0, 2, budget/2)
	if err := CheckGraph(tri); err != nil {
		t.Errorf("at the bound: CheckGraph = %v", err)
	}
	sim := Build(line(0))
	src, dst := sim.AddHost(0), sim.AddHost(2)
	sim.FinishUnicast(UseOracle)
	rt, ok := sim.oracle.RouterFor(src.Node).Lookup(dst.Iface.Addr)
	if want := (budget + 1) * int64(DelayUnit); !ok || rt.Metric != want {
		t.Errorf("route across the whole line: %+v ok=%v, want metric %d", rt, ok, want)
	}
}
