package mfib

import (
	"math/rand"
	"slices"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// refLive is the test's own liveness rule, read through the exported oif
// accessors: ifc is in e's list and Live says it forwards. A nil entry holds
// nothing.
func refLive(e *Entry, ifc *netsim.Iface, now netsim.Time) (o *OIF, live bool) {
	if e == nil {
		return nil, false
	}
	for i := 0; i < e.OIFCount(); i++ {
		if o := e.OIFAt(i); o.Iface == ifc {
			return o, o.Live(now)
		}
	}
	return nil, false
}

// refFanouts defines the three §3.5 fan-outs as sets over ifs (which are in
// ascending index order), independently of the append functions:
//
//   - self: the entry's live interfaces other than except;
//   - shared: (*,G)'s live interfaces other than except, minus each one the
//     negative cache holds live with no LAN prune pending (§3.3 fn. 11);
//   - union: (S,G)'s self list, then every shared interface it lacks other
//     than the SPT iif.
func refFanouts(ifs []*netsim.Iface, sg, wc, rpt *Entry, now netsim.Time, except *netsim.Iface) (self, shared, union []*netsim.Iface) {
	inShared := func(ifc *netsim.Iface) bool {
		if _, live := refLive(wc, ifc, now); !live || ifc == except {
			return false
		}
		ro, cut := refLive(rpt, ifc, now)
		return !cut || ro.PrunePending
	}
	for _, ifc := range ifs {
		if _, live := refLive(wc, ifc, now); live && ifc != except {
			self = append(self, ifc)
		}
		if inShared(ifc) {
			shared = append(shared, ifc)
		}
		if _, live := refLive(sg, ifc, now); live && ifc != except {
			union = append(union, ifc)
		}
	}
	for _, ifc := range ifs {
		if _, live := refLive(sg, ifc, now); !live && ifc != sg.IIF && inShared(ifc) {
			union = append(union, ifc)
		}
	}
	return self, shared, union
}

// TestFanoutMatchesReferenceSets is the MFIB fan-out differential test:
// under random interleavings of oif mutations, in-place field flips (pruned
// oifs whose deadlines later pass among them), negative-cache creation and
// deletion, and time advances, each append form must equal refFanouts —
// same interfaces, same order — appended into a scratch that already holds
// a prefix, which it must leave alone.
func TestFanoutMatchesReferenceSets(t *testing.T) {
	ifs := testIfaces(6)
	rng := rand.New(rand.NewSource(3))
	g := addr.GroupForIndex(0)
	s := addr.V4(10, 100, 1, 1)
	prefix := testIfaces(1)[0]
	scratch := make([]*netsim.Iface, 0, 2)
	for trial := 0; trial < 30; trial++ {
		tb := NewTable(new(Arena))
		wc, _ := tb.Upsert(Key{Group: g, RPBit: true}, 0)
		sg, _ := tb.Upsert(Key{Source: s, Group: g}, 0)
		sg.IIF = ifs[5]
		var rpt *Entry
		now := netsim.Time(0)
		for step := 0; step < 400; step++ {
			e := wc
			switch rng.Intn(3) {
			case 1:
				e = sg
			case 2:
				e = rpt // may be nil
			}
			switch op := rng.Intn(12); {
			case op < 4:
				if e != nil {
					e.AddOIF(ifs[rng.Intn(len(ifs))], now+netsim.Time(rng.Intn(200)))
				}
			case op < 6:
				if e != nil {
					e.AddLocalOIF(ifs[rng.Intn(len(ifs))])
				}
			case op < 8:
				if e != nil {
					e.RemoveOIF(ifs[rng.Intn(len(ifs))])
				}
			case op < 9: // flip fields in place, as the engines do
				if e != nil {
					if o := e.OIF(rng.Intn(len(ifs))); o != nil {
						switch rng.Intn(4) {
						case 0:
							o.LocalMember = !o.LocalMember
						case 1:
							o.PrunePending = !o.PrunePending
						case 2:
							o.Expires = now + netsim.Time(rng.Intn(100))
						case 3: // a flood-and-prune cut that lapses later
							o.Pruned, o.PrunePending = true, false
							o.PruneDeadline = now + netsim.Time(rng.Intn(100))
						}
					}
				}
			case op < 10: // create/destroy the negative cache
				if rpt == nil {
					rpt, _ = tb.Upsert(Key{Source: s, Group: g, RPBit: true}, now)
				} else {
					tb.Delete(rpt.Key)
					rpt = nil
				}
			default:
				now += netsim.Time(rng.Intn(60))
			}
			except := ifs[rng.Intn(len(ifs))]
			if rng.Intn(4) == 0 {
				except = nil
			}
			self, shared, union := refFanouts(ifs, sg, wc, rpt, now, except)
			check := func(name string, got, want []*netsim.Iface) {
				t.Helper()
				if got[0] != prefix || !slices.Equal(got[1:], want) {
					t.Fatalf("trial %d step %d: %s got=%v want=%v", trial, step, name, got[1:], want)
				}
			}
			scratch = wc.AppendLiveOIFs(append(scratch[:0], prefix), now, except)
			check("self", scratch, self)
			scratch = AppendShared(append(scratch[:0], prefix), wc, rpt, now, except)
			check("shared", scratch, shared)
			scratch = AppendUnion(append(scratch[:0], prefix), sg, wc, rpt, now, except)
			check("union", scratch, union)
		}
	}
}

// TestAppendFanoutCases pins each rule of the fan-out by hand: negative-cache
// subtraction and its pending-prune exception, the prune lapse at
// PruneDeadline, a join timer passing, the except interface, and the union's
// SPT-iif exclusion and deduplication.
func TestAppendFanoutCases(t *testing.T) {
	ifs := testIfaces(4)
	g := addr.GroupForIndex(0)
	s := addr.V4(10, 100, 1, 1)
	type entries struct{ sg, wc, rpt *Entry }
	build := func(setup func(e entries)) entries {
		tb := NewTable(new(Arena))
		wc, _ := tb.Upsert(Key{Group: g, RPBit: true}, 0)
		sg, _ := tb.Upsert(Key{Source: s, Group: g}, 0)
		rpt, _ := tb.Upsert(Key{Source: s, Group: g, RPBit: true}, 0)
		e := entries{sg, wc, rpt}
		setup(e)
		return e
	}
	for _, tc := range []struct {
		name   string
		setup  func(e entries)
		noRpt  bool
		now    netsim.Time
		except int // index into ifs, -1 for none
		shared []int
		union  []int
	}{{
		name:   "negative cache subtracts",
		setup:  func(e entries) { e.wc.AddOIF(ifs[0], 1000); e.wc.AddOIF(ifs[1], 1000); e.rpt.AddOIF(ifs[0], 1000) },
		now:    10,
		except: -1,
		shared: []int{1},
		union:  []int{1},
	}, {
		name:   "no negative cache",
		setup:  func(e entries) { e.wc.AddOIF(ifs[0], 1000); e.wc.AddOIF(ifs[1], 1000); e.rpt.AddOIF(ifs[0], 1000) },
		noRpt:  true,
		now:    10,
		except: -1,
		shared: []int{0, 1},
		union:  []int{0, 1},
	}, {
		name: "pending LAN prune still forwards",
		setup: func(e entries) {
			e.wc.AddOIF(ifs[0], 1000)
			o := e.rpt.AddOIF(ifs[0], 1000)
			o.PrunePending, o.PruneDeadline = true, 20
		},
		now:    10,
		except: -1,
		shared: []int{0},
		union:  []int{0},
	}, {
		name:   "expired negative cache no longer subtracts",
		setup:  func(e entries) { e.wc.AddOIF(ifs[0], 1000); e.rpt.AddOIF(ifs[0], 5) },
		now:    10,
		except: -1,
		shared: []int{0},
		union:  []int{0},
	}, {
		name:   "join timer passes",
		setup:  func(e entries) { e.wc.AddOIF(ifs[0], 100); e.wc.AddLocalOIF(ifs[1]) },
		now:    101,
		except: -1,
		shared: []int{1},
		union:  []int{1},
	}, {
		name:   "except is never a fan-out",
		setup:  func(e entries) { e.wc.AddOIF(ifs[0], 1000); e.wc.AddOIF(ifs[1], 1000); e.sg.AddOIF(ifs[1], 1000) },
		now:    10,
		except: 1,
		shared: []int{0},
		union:  []int{0},
	}, {
		name: "union skips the SPT iif and dedups",
		setup: func(e entries) {
			e.sg.IIF = ifs[3]
			e.sg.AddOIF(ifs[2], 1000)
			for _, ifc := range ifs {
				e.wc.AddOIF(ifc, 1000)
			}
		},
		now:    10,
		except: 0,
		shared: []int{1, 2, 3},
		union:  []int{2, 1},
	}} {
		e := build(tc.setup)
		rpt := e.rpt
		if tc.noRpt {
			rpt = nil
		}
		var except *netsim.Iface
		if tc.except >= 0 {
			except = ifs[tc.except]
		}
		want := func(idx []int) []*netsim.Iface {
			out := []*netsim.Iface{}
			for _, i := range idx {
				out = append(out, ifs[i])
			}
			return out
		}
		if got := AppendShared([]*netsim.Iface{}, e.wc, rpt, tc.now, except); !slices.Equal(got, want(tc.shared)) {
			t.Errorf("%s: shared %v, want %v", tc.name, got, want(tc.shared))
		}
		if got := AppendUnion([]*netsim.Iface{}, e.sg, e.wc, rpt, tc.now, except); !slices.Equal(got, want(tc.union)) {
			t.Errorf("%s: union %v, want %v", tc.name, got, want(tc.union))
		}
	}
}

// TestFanoutPruneLapse pins the flood-and-prune cut: a pruned oif grows back
// exactly at its deadline, with no mutation in between.
func TestFanoutPruneLapse(t *testing.T) {
	ifs := testIfaces(2)
	e, _ := NewTable(new(Arena)).Upsert(Key{Source: addr.V4(10, 100, 1, 1), Group: addr.GroupForIndex(0)}, 0)
	e.AddOIF(ifs[0], 1<<40)
	o := e.AddOIF(ifs[1], 1<<40)
	o.Pruned, o.PruneDeadline = true, 100
	for _, tc := range []struct {
		now  netsim.Time
		want int
	}{{0, 1}, {99, 1}, {100, 2}, {101, 2}} {
		if got := e.AppendLiveOIFs(nil, tc.now, nil); len(got) != tc.want {
			t.Errorf("t=%d: fan-out %v, want %d interfaces", tc.now, got, tc.want)
		}
	}
	if e.OIFEmpty(99) || !e.HasOIF(ifs[1], 100) || e.HasOIF(ifs[1], 99) {
		t.Error("liveness disagrees with the fan-out around the deadline")
	}
}

// TestPlanTimerInvalidation pins the one non-mutation way a list shrinks: a
// join timer passing drops the interface from the fan-out with no call on
// the entry in between.
func TestPlanTimerInvalidation(t *testing.T) {
	ifs := testIfaces(2)
	e, _ := NewTable(new(Arena)).Upsert(Key{Group: addr.GroupForIndex(0), RPBit: true}, 0)
	e.AddOIF(ifs[0], 100)
	e.AddLocalOIF(ifs[1])
	if got := e.AppendLiveOIFs(nil, 50, nil); len(got) != 2 {
		t.Fatalf("before expiry: %v", got)
	}
	if got := e.AppendLiveOIFs(nil, 101, nil); len(got) != 1 || got[0] != ifs[1] {
		t.Fatalf("after expiry: %v", got)
	}
}

// TestPlanStaleNegativeCache pins that a deleted negative cache stops
// subtracting, and that a fresh one created in its (recycled) slot starts
// empty rather than serving the old subtraction.
func TestPlanStaleNegativeCache(t *testing.T) {
	ifs := testIfaces(2)
	tb := NewTable(new(Arena))
	g := addr.GroupForIndex(0)
	s := addr.V4(10, 100, 1, 1)
	wc, _ := tb.Upsert(Key{Group: g, RPBit: true}, 0)
	wc.AddOIF(ifs[0], 1000)
	wc.AddOIF(ifs[1], 1000)
	rptKey := Key{Source: s, Group: g, RPBit: true}
	rpt, _ := tb.Upsert(rptKey, 0)
	rpt.AddOIF(ifs[0], 1000)
	if got := AppendShared(nil, wc, rpt, 10, nil); len(got) != 1 || got[0] != ifs[1] {
		t.Fatalf("with negative cache: %v", got)
	}
	tb.Delete(rptKey)
	if got := AppendShared(nil, wc, nil, 10, nil); len(got) != 2 {
		t.Fatalf("after rpt delete: %v", got)
	}
	rpt, _ = tb.Upsert(rptKey, 10)
	if got := AppendShared(nil, wc, rpt, 10, nil); len(got) != 2 {
		t.Fatalf("fresh rpt entry subtracts: %v", got)
	}
}

// TestWarmForwardAllocFree pins the per-packet fan-out's cost: appending
// each of the three fan-outs into a warm scratch allocates nothing.
func TestWarmForwardAllocFree(t *testing.T) {
	wc, sg, rpt, in := benchEntries(NewTable(new(Arena)))
	now := netsim.Time(10)
	var scratch []*netsim.Iface
	run := func() {
		scratch = wc.AppendLiveOIFs(scratch[:0], now, in)
		scratch = AppendShared(scratch[:0], wc, rpt, now, in)
		scratch = AppendUnion(scratch[:0], sg, wc, rpt, now, in)
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("warm fan-out append allocates %.1f per run", n)
	}
}

// TestRecycledSlotZeroAlloc pins that a recycled slot keeps its oif spill
// capacity: deleting an entry, re-creating it with a three-interface list
// and forwarding once into a warm scratch allocates nothing.
func TestRecycledSlotZeroAlloc(t *testing.T) {
	ifs := testIfaces(4)
	tb := NewTable(new(Arena))
	k := Key{Group: addr.GroupForIndex(0), RPBit: true}
	var scratch []*netsim.Iface
	cycle := func() {
		tb.Delete(k)
		e, _ := tb.Upsert(k, 0)
		for _, ifc := range ifs[:3] {
			e.AddOIF(ifc, 1000)
		}
		if scratch = e.AppendLiveOIFs(scratch[:0], 10, ifs[3]); len(scratch) != 3 {
			t.Fatalf("fan-out %v, want 3 oifs", scratch)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("re-created entry's first forward allocates %.1f per run", n)
	}
}

func benchEntries(tb *Table) (wc, sg, rpt *Entry, in *netsim.Iface) {
	ifs := testIfaces(8)
	g := addr.GroupForIndex(0)
	s := addr.V4(10, 100, 1, 1)
	wc, _ = tb.Upsert(Key{Group: g, RPBit: true}, 0)
	sg, _ = tb.Upsert(Key{Source: s, Group: g}, 0)
	rpt, _ = tb.Upsert(Key{Source: s, Group: g, RPBit: true}, 0)
	for _, ifc := range ifs[:7] {
		wc.AddOIF(ifc, 1<<40)
		sg.AddOIF(ifc, 1<<40)
	}
	rpt.AddOIF(ifs[2], 1<<40)
	rpt.AddOIF(ifs[4], 1<<40)
	return wc, sg, rpt, ifs[7]
}

// BenchmarkFanout prices one per-packet SPT∪shared fan-out of seven
// interfaces, with a two-interface negative cache, appended into a warm
// scratch.
func BenchmarkFanout(b *testing.B) {
	wc, sg, rpt, in := benchEntries(NewTable(new(Arena)))
	scratch := AppendUnion(nil, sg, wc, rpt, 10, in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = AppendUnion(scratch[:0], sg, wc, rpt, 10, in)
	}
}
