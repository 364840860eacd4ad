package pimdm

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/unicast"
)

// TestRegionMembershipCallbackOrder pins recomputeRegionPresence to firing
// a consumer's region-membership toggles in ascending group order. The border hooks
// behind that callback send joins and grafts, so callback order is emission
// order — if it followed map iteration (the expireNeighbors bug class), a
// single member ad carrying many groups, or one ad origin expiring, would
// emit in a different order every run.
func TestRegionMembershipCallbackOrder(t *testing.T) {
	net := netsim.NewNetwork()
	nd := net.AddNode("a")
	net.AddIface(nd, addr.V4(10, 0, 0, 1))
	oracle := unicast.NewOracle(net)
	var fired []addr.IP
	var present []bool
	r := NewConsumer(nd, Config{}, oracle.RouterFor(nd), func(g addr.IP, p bool) {
		fired = append(fired, g)
		present = append(present, p)
	})
	ascending := func(what string) {
		t.Helper()
		for i := 1; i < len(fired); i++ {
			if fired[i-1] >= fired[i] {
				t.Fatalf("%s toggles out of ascending group order: %v", what, fired)
			}
		}
	}

	// One member ad carrying many groups toggles them all in a single
	// recompute — the simultaneous-appearance case.
	const n = 16
	origin := addr.V4(10, 9, 9, 9)
	var groups []addr.IP
	for i := 0; i < n; i++ {
		groups = append(groups, addr.GroupForIndex(i))
	}
	// Two origins advertising overlapping halves, so the union is a merge.
	r.advertisers[origin] = adState{groups: groups[:n/2+2]}
	r.advertisers[origin+1] = adState{groups: groups[n/2-2:]}
	r.recomputeRegionPresence()
	if len(fired) != n {
		t.Fatalf("fired %d on-toggles, want %d", len(fired), n)
	}
	for i, p := range present {
		if !p {
			t.Fatalf("toggle %d (%v) reported absent on appearance", i, fired[i])
		}
	}
	ascending("on")

	// Simultaneous expiry: the ad origins go silent and every group
	// vanishes in one recompute.
	fired, present = nil, nil
	clear(r.advertisers)
	r.recomputeRegionPresence()
	if len(fired) != n {
		t.Fatalf("fired %d off-toggles, want %d", len(fired), n)
	}
	for i, p := range present {
		if p {
			t.Fatalf("toggle %d (%v) reported present on expiry", i, fired[i])
		}
	}
	ascending("off")
}
