package core_test

import (
	"math/rand"
	"runtime"
	"testing"

	"pim/internal/addr"
	"pim/internal/scenario"
	"pim/internal/topology"
)

// TestDeployFootprint pins what a deployment costs per group before any
// join: the group→RP table is one copy per deployment, not one per router.
// Deploying PIM-SM on 1 024 routers with 256 groups mapped may allocate only
// the table's own copy beyond what 1 group costs — under one object per
// router. A copy per router is 256 × 1 024 slices (262 144 objects) more.
func TestDeployFootprint(t *testing.T) {
	const routers = 1024
	g := topology.Random(topology.GenConfig{Nodes: routers, Degree: 4}, rand.New(rand.NewSource(42)))
	deployAllocs := func(groups int) uint64 {
		sim := scenario.Build(g)
		sim.FinishUnicast(scenario.UseOracle)
		rps := map[addr.IP][]addr.IP{}
		for i := 0; i < groups; i++ {
			rps[addr.GroupForIndex(i)] = []addr.IP{sim.RouterAddr(i % routers)}
		}
		opt := scenario.WithRPMapping(rps)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sim.Deploy(scenario.SparseMode, opt)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	one, many := deployAllocs(1), deployAllocs(256)
	t.Logf("deploy allocations: %d with 1 group, %d with 256", one, many)
	if extra := int64(many) - int64(one); extra >= routers {
		t.Errorf("deploying 256 groups allocated %d objects more than 1 group (%d vs %d), want < %d", extra, many, one, routers)
	}
}
