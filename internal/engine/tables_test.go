package engine

import (
	"slices"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// TestNeighborsExpireOrder pins the PR 6 bug class in one place: entries that
// expire in the same sweep are reported in (iface, address) order whatever
// order they were inserted in (and so whatever order the maps iterate in).
func TestNeighborsExpireOrder(t *testing.T) {
	want := []ifaceAddr{{0, 5}, {0, 9}, {1, 2}, {1, 7}, {3, 1}, {3, 4}, {3, 8}}
	perms := [][]int{{0, 1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1, 0}, {3, 0, 6, 2, 5, 1, 4}, {4, 6, 1, 3, 0, 5, 2}}
	for _, perm := range perms {
		// Repeat: Go randomizes map iteration per range statement.
		for rep := 0; rep < 20; rep++ {
			var n Neighbors
			for _, i := range perm {
				n.Heard(want[i].iface, want[i].a, 0, 10)
			}
			n.Heard(1, 3, 0, 100) // outlives the sweep
			var got []ifaceAddr
			n.Expire(11, func(iface int, a addr.IP) { got = append(got, ifaceAddr{iface, a}) })
			if !slices.Equal(got, want) {
				t.Fatalf("insertion order %v: expired %v, want %v", perm, got, want)
			}
			if c := n.Count(11); c != 1 {
				t.Fatalf("after sweep: %d live entries, want the 1 unexpired", c)
			}
		}
	}
}

// TestNeighborsExpireWithoutCallback: the dense engines sweep silently.
func TestNeighborsExpireWithoutCallback(t *testing.T) {
	var n Neighbors
	n.Heard(0, 1, 0, 10)
	n.Heard(0, 2, 0, 20)
	n.Expire(15, nil)
	if known, _ := n.Heard(0, 1, 15, 30); known {
		t.Error("expired entry survived a callback-less sweep")
	}
	if known, live := n.Heard(0, 2, 15, 30); !known || !live {
		t.Errorf("unexpired entry: known=%v live=%v, want true true", known, live)
	}
}

// TestNeighborsHeardKnownVersusLive pins the distinction two callers differ
// on: sparse mode publishes NeighborUp only for an address it has no entry
// for (!known), while the flood-and-prune machine re-evaluates its entries
// whenever the address was not live (!live) — which includes an entry past
// its deadline that no sweep has removed yet.
func TestNeighborsHeardKnownVersusLive(t *testing.T) {
	var n Neighbors
	const ifc, a = 2, addr.IP(7)
	steps := []struct {
		now, deadline netsim.Time
		known, live   bool
	}{
		{0, 10, false, false}, // first hello
		{5, 15, true, true},   // refresh within the hold time
		{15, 25, true, true},  // deadline is inclusive
		{40, 50, true, false}, // expired but unswept: known, not live
		{45, 55, true, true},  // live again after the renewal
	}
	for i, s := range steps {
		known, live := n.Heard(ifc, a, s.now, s.deadline)
		if known != s.known || live != s.live {
			t.Errorf("step %d (now=%d): known=%v live=%v, want %v %v", i, s.now, known, live, s.known, s.live)
		}
	}
	// The same expired-but-unswept entry is dead to every liveness query.
	n.Heard(ifc, 9, 0, 10)
	if n.Alive(ifc, 9, 11) || n.Live(ifc, 11, 8) {
		t.Error("entry past its deadline still counts as live before the sweep")
	}
	if !n.Live(ifc, 11, 0) || n.Live(ifc, 11, 7) {
		t.Error("Live floor: want address 7 to count above floor 0 and not above floor 7")
	}
}

func TestMembers(t *testing.T) {
	var m Members
	if m.Has(0, 1) || m.Any(1) || len(m.Groups(nil)) != 0 {
		t.Fatal("zero Members is not empty")
	}
	m.Add(1, 30)
	m.Add(0, 20)
	m.Add(0, 30)
	m.Remove(2, 30) // never added: no-op
	buf := make([]addr.IP, 0, 8)
	if got := m.Groups(buf); !slices.Equal(got, []addr.IP{20, 30}) {
		t.Errorf("Groups = %v, want [20 30]", got)
	}
	m.Remove(0, 30)
	if !m.Has(1, 30) || m.Has(0, 30) || !m.Any(30) {
		t.Error("Remove touched the wrong interface")
	}
	m.Reset()
	if m.Any(20) || m.Any(30) {
		t.Error("Reset left members behind")
	}
}
