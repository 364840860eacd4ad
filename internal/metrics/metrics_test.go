package metrics

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestCountersBasics(t *testing.T) {
	c := New()
	c.Inc(CtrlJoinPrune)
	c.Add(CtrlJoinPrune, 2)
	c.Add(DataForwarded, 10)
	if c.Get(CtrlJoinPrune) != 3 {
		t.Errorf("joinprune = %d", c.Get(CtrlJoinPrune))
	}
	if c.Get(SPFRuns) != 0 {
		t.Error("untouched counter nonzero")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "ctrl.joinprune" || names[1] != "data.forwarded" {
		t.Errorf("Names = %v", names)
	}
}

func TestCountersMerge(t *testing.T) {
	a, b := New(), New()
	a.Add(DataForwarded, 1)
	b.Add(DataForwarded, 2)
	b.Add(DataDropped, 5)
	a.Merge(b)
	if a.Get(DataForwarded) != 3 || a.Get(DataDropped) != 5 {
		t.Errorf("merge: %v", a)
	}
}

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.Add(CtrlQuery, 1) // must not panic
	c.Inc(CtrlQuery)
	if c.Get(CtrlQuery) != 0 {
		t.Error("nil Get should be 0")
	}
	if c.Names() != nil {
		t.Error("nil Names should be nil")
	}
	if c.String() != "" {
		t.Error("nil String should be empty")
	}
	c.Merge(New())
	New().Merge(nil)
	c.Reset()
}

func TestCountersReset(t *testing.T) {
	c := New()
	c.Add(CtrlGraft, 3)
	c.Inc(CtrlPrune)
	c.Reset()
	if c.Get(CtrlGraft) != 0 || c.Get(CtrlPrune) != 0 {
		t.Errorf("Reset left graft=%d prune=%d", c.Get(CtrlGraft), c.Get(CtrlPrune))
	}
	if len(c.Names()) != 0 {
		t.Errorf("Reset left names %v", c.Names())
	}
	c.Inc(CtrlGraft)
	if c.Get(CtrlGraft) != 1 {
		t.Error("counter unusable after Reset")
	}
}

func TestCountersString(t *testing.T) {
	c := New()
	c.Add(DataForwarded, 2)
	c.Add(CtrlAssert, 1)
	c.Add(CtrlLSA, 0) // touched with delta 0: listed, as a map key would be
	if got := c.String(); got != "ctrl.assert=1 ctrl.lsa=0 data.forwarded=2" {
		t.Errorf("String = %q", got)
	}
}

// TestIDsInNameOrder holds the declaration order Names and String rely on:
// walking the IDs in ascending order visits the names in sorted order.
func TestIDsInNameOrder(t *testing.T) {
	for id, name := range names {
		if name == "" {
			t.Errorf("ID %d has no name", id)
		}
	}
	if !sort.StringsAreSorted(names[:]) {
		t.Errorf("counter IDs are not declared in name order: %v", names)
	}
}

// mapCounters is the name-keyed map bag Counters replaced, kept as the
// reference for what Names, String, Merge and Reset report.
type mapCounters map[string]int

func (m mapCounters) names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (m mapCounters) String() string {
	var parts []string
	for _, k := range m.names() {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

// TestCountersMatchMapVersion drives two array bags and two map bags through
// the same random Add (delta 0 included) / Merge / Reset sequence and requires
// identical Names, String and Get after every step.
func TestCountersMatchMapVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	got := [2]*Counters{New(), New()}
	want := [2]mapCounters{{}, {}}
	for step := 0; step < 2000; step++ {
		i := rng.Intn(2)
		switch op := rng.Intn(20); {
		case op == 0:
			got[i].Reset()
			clear(want[i])
		case op == 1:
			got[i].Merge(got[1-i])
			for k, v := range want[1-i] {
				want[i][k] += v
			}
		default:
			id, delta := ID(rng.Intn(int(numIDs))), rng.Intn(4)
			got[i].Add(id, int64(delta))
			want[i][names[id]] += delta
		}
		if g, w := got[i].String(), want[i].String(); g != w {
			t.Fatalf("step %d: String = %q, map version %q", step, g, w)
		}
		if g, w := fmt.Sprint(got[i].Names()), fmt.Sprint(want[i].names()); g != w {
			t.Fatalf("step %d: Names = %s, map version %s", step, g, w)
		}
		for id, name := range names {
			if g, w := got[i].Get(ID(id)), int64(want[i][name]); g != w {
				t.Fatalf("step %d: Get(%s) = %d, map version %d", step, name, g, w)
			}
		}
	}
}
