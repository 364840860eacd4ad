package mfib

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// mapModel is the reference store the arena Table is held to: the
// straightforward map of individually heap-allocated entries, walked by
// snapshotting and sorting its keys. It defines the observable contract —
// lookups, (Group, Source, RPBit) walk order, walk-mutation visibility,
// Sweep results, a fresh Life() per creation — with none of the arena,
// index, or order-slice machinery. The models of tables that share one
// arena share its creation counter, life.
type mapModel struct {
	m    map[Key]*Entry
	life *uint32
}

func newModel(life *uint32) *mapModel { return &mapModel{m: map[Key]*Entry{}, life: life} }

func (m *mapModel) Get(k Key) *Entry { return m.m[k] }
func (m *mapModel) Len() int         { return len(m.m) }
func (m *mapModel) Delete(k Key)     { delete(m.m, k) }

func (m *mapModel) Upsert(k Key, _ netsim.Time) (*Entry, bool) {
	if e := m.m[k]; e != nil {
		return e, false
	}
	*m.life++
	e := NewEntry(k)
	e.life = *m.life
	m.m[k] = e
	return e, true
}

// walk visits the selected entries in canonical order; entries deleted
// after the key snapshot are skipped, entries created after it are not
// visited.
func (m *mapModel) walk(sel func(Key) bool, fn func(*Entry)) {
	var keys []Key
	for k := range m.m {
		if sel(k) {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, compareKeys)
	for _, k := range keys {
		if e := m.m[k]; e != nil {
			fn(e)
		}
	}
}

func (m *mapModel) ForGroup(g addr.IP, fn func(*Entry)) {
	m.walk(func(k Key) bool { return k.Group == g }, fn)
}

func (m *mapModel) ForEach(fn func(*Entry)) { m.walk(func(Key) bool { return true }, fn) }

func (m *mapModel) Sweep(now netsim.Time) []*Entry {
	var removed []*Entry
	m.ForEach(func(e *Entry) {
		for i := e.OIFCount() - 1; i >= 0; i-- {
			if o := e.OIFAt(i); !o.LocalMember && now > o.Expires {
				e.RemoveOIF(o.Iface)
			}
		}
		if e.DeleteAt != 0 && now >= e.DeleteAt {
			removed = append(removed, e)
			delete(m.m, e.Key)
		}
	})
	slices.SortFunc(removed, func(a, b *Entry) int {
		if a.Key.Group != b.Key.Group {
			return cmp.Compare(a.Key.Group, b.Key.Group)
		}
		return cmp.Compare(a.Key.Source, b.Key.Source)
	})
	return removed
}

// dumpEntry renders every visible field of an entry, oif list and Life()
// stamp included, so the lockstep test can compare table and model state
// byte-for-byte.
func dumpEntry(e *Entry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v/%v/%v rp=%v wc=%v spt=%v up=%v del=%d sup=%d life=%d",
		e.Key.Source, e.Key.Group, e.Key.RPBit, e.RP, e.Wildcard, e.SPTBit,
		e.UpstreamNeighbor, e.DeleteAt, e.SuppressedUntil, e.Life())
	if e.IIF != nil {
		fmt.Fprintf(&b, " iif=%d", e.IIF.Index)
	}
	for i := 0; i < e.OIFCount(); i++ {
		o := e.OIFAt(i)
		fmt.Fprintf(&b, " oif(%d exp=%d lm=%v pp=%v pd=%d)",
			o.Iface.Index, o.Expires, o.LocalMember, o.PrunePending, o.PruneDeadline)
	}
	return b.String()
}

// store is what the lockstep test drives on both sides.
type store interface {
	Len() int
	ForEach(func(*Entry))
}

// walkStore is what walkNested drives on either side of the lockstep.
type walkStore interface {
	ForGroup(addr.IP, func(*Entry))
	Delete(Key)
	Upsert(Key, netsim.Time) (*Entry, bool)
}

// walkNested walks a's group g, deleting del and creating ins in a at each
// visit; each visit nests a walk of b's group g2 that deletes del2 and
// creates ins2 in b, and each of those visits nests a read-only walk of a's
// group g. It returns the keys of every visit of the three walks in order.
func walkNested(a, b walkStore, g, g2 addr.IP, del, ins, del2, ins2 Key, now netsim.Time) (seq []Key) {
	a.ForGroup(g, func(e *Entry) {
		seq = append(seq, e.Key)
		a.Delete(del)
		a.Upsert(ins, now)
		b.ForGroup(g2, func(e *Entry) {
			seq = append(seq, e.Key)
			b.Delete(del2)
			b.Upsert(ins2, now)
			a.ForGroup(g, func(e *Entry) { seq = append(seq, e.Key) })
		})
	})
	return seq
}

func dumpTable(t store) string {
	var b strings.Builder
	fmt.Fprintf(&b, "len=%d\n", t.Len())
	t.ForEach(func(e *Entry) {
		b.WriteString(dumpEntry(e))
		b.WriteByte('\n')
	})
	return b.String()
}

// TestFlatMapStoreLockstep drives tens of thousands of mixed operations
// against the arena Table and the map model in lockstep and requires
// identical visible state at every step: same lookups, same walk order and
// insert/delete-during-walk visibility, same Sweep results, same Life()
// stamps, same full-table dumps. This is the differential oracle for the
// arena/index/order machinery of DESIGN.md §16.
//
// A second table shares the first one's arena, as every table of one
// simulation does — its slabs, its one free list, its creation counter and
// its walk stack — and keeps its own model and its own mutation stream
// (drawn from rng2, so the first table's sequence is the one-table test's).
// Slots one table frees are recycled by the other, so a table that read
// another's slot, or a recycle that kept a field, changes a dump. Each walk
// of the first table nests a mutating walk of the second, which nests a
// read-only walk of the first: a stack that mixed up two tables' snapshots
// at one depth, or restored its depth wrongly, changes a visit sequence or
// a dump.
func TestFlatMapStoreLockstep(t *testing.T) {
	const ops = 60000
	rng := rand.New(rand.NewSource(7))
	ifs := testIfaces(7) // wider than inlineOIFCap to exercise the spill path
	arena, life := new(Arena), new(uint32)
	flat := NewTable(arena)
	ref := newModel(life)
	flat2 := NewTable(arena)
	ref2 := newModel(life)
	rng2 := rand.New(rand.NewSource(13))

	groups := make([]addr.IP, 5)
	for i := range groups {
		groups[i] = addr.GroupForIndex(i)
	}
	sources := []addr.IP{0, addr.V4(10, 1, 0, 1), addr.V4(10, 2, 0, 1), addr.V4(10, 3, 0, 1)}

	keyFrom := func(rng *rand.Rand) Key {
		s := sources[rng.Intn(len(sources))]
		return Key{Source: s, Group: groups[rng.Intn(len(groups))], RPBit: s == 0 || rng.Intn(2) == 0}
	}
	randKey := func() Key { return keyFrom(rng) }

	// step2 upserts or deletes one key of the second table and its model.
	step2 := func(now netsim.Time) {
		k := keyFrom(rng2)
		if rng2.Intn(3) == 0 {
			flat2.Delete(k)
			ref2.Delete(k)
			return
		}
		flat2.Upsert(k, now)
		ref2.Upsert(k, now)
	}

	// Miss-heavy probes, forwardData's three lookups per packet over a
	// source/group universe mostly absent from both stores, drawn from their
	// own generator so the mutation sequence above is unchanged.
	probeRng := rand.New(rand.NewSource(11))
	missProbe := func(i int) {
		s := addr.V4(10, byte(1+probeRng.Intn(12)), 0, 1)
		g := addr.GroupForIndex(probeRng.Intn(3 * len(groups)))
		for _, k := range []Key{{Group: g, RPBit: true}, {Source: s, Group: g}, {Source: s, Group: g, RPBit: true}} {
			if fe, re := flat.Get(k), ref.Get(k); (fe == nil) != (re == nil) || fe != nil && fe.Key != re.Key {
				t.Fatalf("op %d: miss probe Get(%v) differs: flat=%v ref=%v", i, k, fe != nil, re != nil)
			}
		}
		if (flat.Wildcard(g) == nil) != (ref.Get(Key{Group: g, RPBit: true}) == nil) ||
			(flat.SG(s, g) == nil) != (ref.Get(Key{Source: s, Group: g}) == nil) ||
			(flat.SGRpt(s, g) == nil) != (ref.Get(Key{Source: s, Group: g, RPBit: true}) == nil) {
			t.Fatalf("op %d: Wildcard/SG/SGRpt(%v, %v) presence differs from the model", i, s, g)
		}
	}

	var now netsim.Time
	for i := 0; i < ops; i++ {
		now += netsim.Time(rng.Intn(8))
		k := randKey()
		fe, re := flat.Get(k), ref.Get(k)
		if (fe == nil) != (re == nil) {
			t.Fatalf("op %d: Get(%v) presence differs: flat=%v ref=%v", i, k, fe != nil, re != nil)
		}
		missProbe(i)
		switch op := rng.Intn(20); {
		case op < 5: // upsert
			fe2, fc := flat.Upsert(k, now)
			re2, rc := ref.Upsert(k, now)
			if fc != rc {
				t.Fatalf("op %d: Upsert(%v) created differs: flat=%v ref=%v", i, k, fc, rc)
			}
			if fc {
				rp := sources[1+rng.Intn(len(sources)-1)]
				fe2.RP, re2.RP = rp, rp
				up := addr.V4(10, 99, byte(rng.Intn(4)), 1)
				fe2.UpstreamNeighbor, re2.UpstreamNeighbor = up, up
				ifc := ifs[rng.Intn(len(ifs))]
				fe2.IIF, re2.IIF = ifc, ifc
			}
		case op < 9: // add oif
			if fe != nil {
				ifc := ifs[rng.Intn(len(ifs))]
				exp := now + netsim.Time(rng.Intn(200))
				if rng.Intn(3) == 0 {
					fe.AddLocalOIF(ifc)
					re.AddLocalOIF(ifc)
				} else {
					fe.AddOIF(ifc, exp)
					re.AddOIF(ifc, exp)
				}
			}
		case op < 11: // remove oif
			if fe != nil {
				ifc := ifs[rng.Intn(len(ifs))]
				fe.RemoveOIF(ifc)
				re.RemoveOIF(ifc)
			}
		case op < 13: // flip oif fields in place, as the engines do
			if fe != nil {
				idx := ifs[rng.Intn(len(ifs))].Index
				fo, ro := fe.OIF(idx), re.OIF(idx)
				if (fo == nil) != (ro == nil) {
					t.Fatalf("op %d: OIF(%d) presence differs on %v", i, idx, k)
				}
				if fo != nil {
					switch rng.Intn(3) {
					case 0:
						fo.LocalMember = !fo.LocalMember
						ro.LocalMember = fo.LocalMember
					case 1:
						fo.PrunePending = !fo.PrunePending
						ro.PrunePending = fo.PrunePending
					case 2:
						fo.Expires = now + netsim.Time(rng.Intn(150))
						ro.Expires = fo.Expires
					}
				}
			}
		case op < 14: // entry-level timers
			if fe != nil {
				d := now + netsim.Time(rng.Intn(100))
				fe.DeleteAt, re.DeleteAt = d, d
			}
		case op < 16: // delete
			flat.Delete(k)
			ref.Delete(k)
		case op < 17: // sweep
			fr := flat.Sweep(now)
			rr := ref.Sweep(now)
			if len(fr) != len(rr) {
				t.Fatalf("op %d: Sweep removed %d vs %d", i, len(fr), len(rr))
			}
			for j := range fr {
				if fr[j].Key != rr[j].Key {
					t.Fatalf("op %d: Sweep[%d] key %v vs %v", i, j, fr[j].Key, rr[j].Key)
				}
			}
		case op < 18: // walk with mid-walk mutation, nesting the second table's
			g := groups[rng.Intn(len(groups))]
			del, ins := randKey(), randKey()
			g2, del2, ins2 := groups[rng2.Intn(len(groups))], keyFrom(rng2), keyFrom(rng2)
			fseq := walkNested(flat, flat2, g, g2, del, ins, del2, ins2, now)
			rseq := walkNested(ref, ref2, g, g2, del, ins, del2, ins2, now)
			if len(fseq) != len(rseq) {
				t.Fatalf("op %d: ForGroup visited %d vs %d", i, len(fseq), len(rseq))
			}
			for j := range fseq {
				if fseq[j] != rseq[j] {
					t.Fatalf("op %d: ForGroup order differs at %d: %v vs %v", i, j, fseq[j], rseq[j])
				}
			}
		default: // read-only probes
			if fe != nil {
				if fe.OIFEmpty(now) != re.OIFEmpty(now) {
					t.Fatalf("op %d: OIFEmpty differs on %v", i, k)
				}
				ifc := ifs[rng.Intn(len(ifs))]
				if fe.HasOIF(ifc, now) != re.HasOIF(ifc, now) {
					t.Fatalf("op %d: HasOIF differs on %v", i, k)
				}
				fl := fe.AppendLiveOIFs(nil, now, nil)
				rl := re.AppendLiveOIFs(nil, now, nil)
				if len(fl) != len(rl) {
					t.Fatalf("op %d: LiveOIFs %d vs %d on %v", i, len(fl), len(rl), k)
				}
				for j := range fl {
					if fl[j] != rl[j] {
						t.Fatalf("op %d: LiveOIFs[%d] differs on %v", i, j, k)
					}
				}
			}
		}
		step2(now)
		if flat.Len() != ref.Len() || flat2.Len() != ref2.Len() {
			t.Fatalf("op %d: Len %d vs %d, second table %d vs %d", i, flat.Len(), ref.Len(), flat2.Len(), ref2.Len())
		}
		if i%500 == 0 {
			if fd, rd := dumpTable(flat), dumpTable(ref); fd != rd {
				t.Fatalf("op %d: full dumps diverge\nflat:\n%s\nref:\n%s", i, fd, rd)
			}
			if fd, rd := dumpTable(flat2), dumpTable(ref2); fd != rd {
				t.Fatalf("op %d: second table's dumps diverge\nflat:\n%s\nref:\n%s", i, fd, rd)
			}
		}
	}
	if fd, rd := dumpTable(flat), dumpTable(ref); fd != rd {
		t.Fatalf("final dumps diverge\nflat:\n%s\nref:\n%s", fd, rd)
	}
	if fd, rd := dumpTable(flat2), dumpTable(ref2); fd != rd {
		t.Fatalf("second table's final dumps diverge\nflat:\n%s\nref:\n%s", fd, rd)
	}
	if arena.depth != 0 {
		t.Fatalf("walk stack left at depth %d", arena.depth)
	}
	if live := flat.Len() + flat2.Len(); arena.used != live+len(arena.free) {
		t.Fatalf("arena holds %d slots: %d live and %d free", arena.used, live, len(arena.free))
	}

	// A slot one table frees is the next the other takes: the recycled
	// entry carries a fresh Life() and nothing of its last incarnation, and
	// the first table no longer sees it.
	for j := 0; j < 20; j++ {
		k, k2 := randKey(), keyFrom(rng2)
		if flat.Get(k) != nil {
			continue
		}
		flat2.Delete(k2)
		ref2.Delete(k2)
		fe, _ := flat.Upsert(k, now)
		re, _ := ref.Upsert(k, now)
		for _, e := range []*Entry{fe, re} {
			e.AddOIF(ifs[1], now+100)
			e.AddOIF(ifs[3], now+100) // spills
		}
		old := fe.Life()
		flat.Delete(k)
		ref.Delete(k)
		fe2, _ := flat2.Upsert(k2, now)
		re2, _ := ref2.Upsert(k2, now)
		if fe2 != fe {
			t.Fatalf("recycle %d: the second table did not take the slot the first freed", j)
		}
		if fe2.Life() == old || fe2.Life() != re2.Life() || fe2.OIFCount() != 0 || fe2.Key != k2 {
			t.Fatalf("recycle %d: recycled entry is %s, model %s (last life %d)", j, dumpEntry(fe2), dumpEntry(re2), old)
		}
		if flat.Get(k) != nil {
			t.Fatalf("recycle %d: the first table still finds %v", j, k)
		}
		if fd, rd := dumpTable(flat), dumpTable(ref); fd != rd {
			t.Fatalf("recycle %d: dumps diverge\nflat:\n%s\nref:\n%s", j, fd, rd)
		}
		if fd, rd := dumpTable(flat2), dumpTable(ref2); fd != rd {
			t.Fatalf("recycle %d: second table's dumps diverge\nflat:\n%s\nref:\n%s", j, fd, rd)
		}
	}

	// Grow the index through several doublings and shrink it back with
	// backward-shift deletes, probing the whole universe — two misses for
	// every hit — after each phase.
	var bulk []Key
	for s := 0; s < 64; s++ {
		for g := 0; g < 24; g++ {
			bulk = append(bulk, Key{Source: addr.V4(10, 77, byte(s), 1), Group: addr.GroupForIndex(g)})
		}
	}
	probeAll := func(phase string) {
		for _, k := range bulk {
			for _, pk := range []Key{k, {Source: k.Source, Group: k.Group, RPBit: true}, {Group: k.Group, RPBit: true}} {
				if (flat.Get(pk) == nil) != (ref.Get(pk) == nil) {
					t.Fatalf("%s: Get(%v) presence differs from the model", phase, pk)
				}
			}
		}
		if flat.Len() != ref.Len() {
			t.Fatalf("%s: Len %d vs %d", phase, flat.Len(), ref.Len())
		}
	}
	for i, k := range bulk {
		flat.Upsert(k, now)
		ref.Upsert(k, now)
		if i%256 == 0 {
			probeAll(fmt.Sprintf("insert %d", i))
		}
	}
	probeAll("inserted")
	for _, i := range rng.Perm(len(bulk))[:len(bulk)*3/4] {
		flat.Delete(bulk[i])
		ref.Delete(bulk[i])
	}
	probeAll("deleted")
	if fd, rd := dumpTable(flat), dumpTable(ref); fd != rd {
		t.Fatalf("bulk dumps diverge\nflat:\n%s\nref:\n%s", fd, rd)
	}
}

// BenchmarkGetMissFlat and BenchmarkGetMissReference price the lookup most
// forwarded packets make twice: a key absent from a table of 512 (S,G)
// entries (here the (S,G,rpt) twin of a present (S,G)), on the arena index
// and on the map model.
func BenchmarkGetMissFlat(b *testing.B) {
	tb := NewTable(new(Arena))
	benchMiss(b, func(k Key) { tb.Upsert(k, 0) }, func(k Key) bool { return tb.Get(k) != nil })
}

func BenchmarkGetMissReference(b *testing.B) {
	ref := newModel(new(uint32))
	benchMiss(b, func(k Key) { ref.Upsert(k, 0) }, func(k Key) bool { return ref.Get(k) != nil })
}

func benchMiss(b *testing.B, put func(Key), get func(Key) bool) {
	var keys []Key
	for s := 0; s < 32; s++ {
		for g := 0; g < 16; g++ {
			k := Key{Source: addr.V4(10, 100, byte(s), 1), Group: addr.GroupForIndex(g)}
			put(k)
			keys = append(keys, Key{Source: k.Source, Group: k.Group, RPBit: true})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if get(keys[i%len(keys)]) {
			b.Fatal("miss key present")
		}
	}
}

// TestFlatStoreRecycleIdentity pins the slot-recycling contract: deleting
// and re-creating a key must yield a fresh Life() and an empty oif list.
func TestFlatStoreRecycleIdentity(t *testing.T) {
	k := Key{Group: addr.GroupForIndex(0), RPBit: true}
	tb := NewTable(new(Arena))
	e1, _ := tb.Upsert(k, 0)
	l1 := e1.Life()
	tb.Delete(k)
	e2, created := tb.Upsert(k, 5)
	if !created {
		t.Fatal("re-create not reported as created")
	}
	if e2.Life() == l1 {
		t.Errorf("recreated entry kept Life %d", l1)
	}
	if e2.OIFCount() != 0 {
		t.Error("recreated entry kept oifs")
	}
}

// TestFlatStoreSpill exercises the inline→spill transition both ways.
func TestFlatStoreSpill(t *testing.T) {
	ifs := testIfaces(inlineOIFCap + 3)
	tb := NewTable(new(Arena))
	e, _ := tb.Upsert(Key{Group: addr.GroupForIndex(0), RPBit: true}, 0)
	for i, ifc := range ifs {
		e.AddOIF(ifc, netsim.Time(100+i))
	}
	if e.OIFCount() != len(ifs) {
		t.Fatalf("OIFCount = %d, want %d", e.OIFCount(), len(ifs))
	}
	live := e.AppendLiveOIFs(nil, 50, nil)
	if len(live) != len(ifs) {
		t.Fatalf("LiveOIFs = %d, want %d", len(live), len(ifs))
	}
	for i := 1; i < len(live); i++ {
		if live[i-1].Index >= live[i].Index {
			t.Fatal("LiveOIFs not sorted by index")
		}
	}
	// Remove from the middle (shifts across the inline/spill boundary).
	e.RemoveOIF(ifs[2])
	if e.OIFCount() != len(ifs)-1 || e.OIF(ifs[2].Index) != nil {
		t.Fatal("middle removal broke the list")
	}
	for _, ifc := range ifs {
		e.RemoveOIF(ifc)
	}
	if e.OIFCount() != 0 {
		t.Fatalf("OIFCount = %d after removing all", e.OIFCount())
	}
}
