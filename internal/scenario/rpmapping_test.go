package scenario

import (
	"slices"
	"testing"

	"pim/internal/addr"
	"pim/internal/core"
)

// TestRPMappingIsNotAliased: the routers of a deployment share one RP table,
// and it is Deploy's own copy. Changing the caller's map afterwards — a new
// group, a candidate rewritten in place — reaches no router, and appending to
// one router's RPsFor result cannot write into the list another router
// returns.
func TestRPMappingIsNotAliased(t *testing.T) {
	sim := Build(square())
	sim.FinishUnicast(UseOracle)
	g0, g1 := addr.GroupForIndex(0), addr.GroupForIndex(1)
	rp, other := sim.RouterAddr(1), sim.RouterAddr(3)
	m := map[addr.IP][]addr.IP{g0: {rp}}
	dep := sim.Deploy(SparseMode, WithRPMapping(m)).(*PIMDeployment)

	m[g0][0] = other
	m[g1] = []addr.IP{rp}
	a := append(dep.Routers[0].RPsFor(g0), 1)
	b := append(dep.Routers[1].RPsFor(g0), 2)
	if !slices.Equal(a, []addr.IP{rp, 1}) || !slices.Equal(b, []addr.IP{rp, 2}) {
		t.Errorf("appends to two routers' RPsFor results: %v and %v, want [%v 1] and [%v 2]", a, b, rp, rp)
	}
	for i, r := range dep.Routers {
		if got := r.RPsFor(g0); !slices.Equal(got, []addr.IP{rp}) {
			t.Errorf("router %d: RPsFor(G0) = %v, want [%v]", i, got, rp)
		}
		if got := r.RPsFor(g1); got != nil {
			t.Errorf("router %d: RPsFor(G1) = %v, a group added to the caller's map after Deploy", i, got)
		}
	}
}

// TestInteropRPMappingIsNotAliased is the same for the mixed deployment,
// whose sparse routers and borders also share one table.
func TestInteropRPMappingIsNotAliased(t *testing.T) {
	sim := Build(square())
	sim.FinishUnicast(UseOracle)
	g0 := addr.GroupForIndex(0)
	rp := sim.RouterAddr(1)
	m := map[addr.IP][]addr.IP{g0: {rp}}
	dep := sim.Deploy(SparseMode, WithRPMapping(m), WithDenseRouters(3)).(*MixedDeployment)
	m[g0][0] = sim.RouterAddr(2)
	if got := dep.Routers[1].(*core.Router).RPsFor(g0); !slices.Equal(got, []addr.IP{rp}) {
		t.Errorf("RPsFor(G0) = %v after the caller rewrote its map, want [%v]", got, rp)
	}
}
