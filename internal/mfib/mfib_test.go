package mfib

import (
	"runtime"
	"testing"
	"unsafe"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// NewEntry builds a standalone empty entry, outside any table.
func NewEntry(k Key) *Entry {
	return &Entry{Key: k, Wildcard: k.Source == 0}
}

func testIfaces(n int) []*netsim.Iface {
	net := netsim.NewNetwork()
	nd := net.AddNode("r")
	out := make([]*netsim.Iface, n)
	for i := range out {
		out[i] = net.AddIface(nd, addr.V4(10, 200, byte(i), 1))
		peer := net.AddIface(net.AddNode("p"), addr.V4(10, 200, byte(i), 2))
		net.Connect(out[i], peer, 1)
	}
	return out
}

func TestKeyKinds(t *testing.T) {
	tb := NewTable(new(Arena))
	g := addr.GroupForIndex(0)
	s := addr.V4(10, 100, 1, 1)
	wc, created := tb.Upsert(Key{Group: g, RPBit: true}, 0)
	if !created || !wc.Wildcard {
		t.Fatalf("wildcard: created=%v wc=%v", created, wc.Wildcard)
	}
	sg, _ := tb.Upsert(Key{Source: s, Group: g}, 0)
	if sg.Wildcard {
		t.Error("(S,G) must not be wildcard")
	}
	rpt, _ := tb.Upsert(Key{Source: s, Group: g, RPBit: true}, 0)
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3 distinct entries", tb.Len())
	}
	if tb.Wildcard(g) != wc || tb.SG(s, g) != sg || tb.SGRpt(s, g) != rpt {
		t.Error("typed getters wrong")
	}
	if tb.SG(s, addr.GroupForIndex(9)) != nil {
		t.Error("missing entry should be nil")
	}
}

func TestUpsertIdempotent(t *testing.T) {
	tb := NewTable(new(Arena))
	k := Key{Group: addr.GroupForIndex(0), RPBit: true}
	e1, c1 := tb.Upsert(k, 5)
	life := e1.Life()
	e2, c2 := tb.Upsert(k, 9)
	if !c1 || c2 || e1 != e2 {
		t.Fatal("Upsert not idempotent")
	}
	if e2.Life() != life {
		t.Errorf("second Upsert moved Life %d -> %d", life, e2.Life())
	}
}

func TestOIFLifetimes(t *testing.T) {
	ifs := testIfaces(3)
	e := NewEntry(Key{Group: addr.GroupForIndex(0), RPBit: true})
	e.AddOIF(ifs[0], 100)
	e.AddLocalOIF(ifs[1])
	if !e.HasOIF(ifs[0], 50) || !e.HasOIF(ifs[1], 50) {
		t.Fatal("fresh oifs should be live")
	}
	if e.HasOIF(ifs[0], 101) {
		t.Error("expired join oif still live")
	}
	if !e.HasOIF(ifs[1], 1<<40) {
		t.Error("local member oif must not expire")
	}
	if e.HasOIF(ifs[2], 0) {
		t.Error("absent oif reported live")
	}
}

func TestAddOIFNeverShortensTimer(t *testing.T) {
	ifs := testIfaces(1)
	e := NewEntry(Key{Group: addr.GroupForIndex(0), RPBit: true})
	e.AddOIF(ifs[0], 100)
	e.AddOIF(ifs[0], 60) // late-arriving shorter holdtime must not shorten
	if !e.HasOIF(ifs[0], 90) {
		t.Error("timer was shortened")
	}
}

func TestLiveOIFsExcludesArrivalIface(t *testing.T) {
	ifs := testIfaces(3)
	e := NewEntry(Key{Group: addr.GroupForIndex(0), RPBit: true})
	for _, ifc := range ifs {
		e.AddOIF(ifc, 100)
	}
	out := e.AppendLiveOIFs(nil, 50, ifs[1])
	if len(out) != 2 {
		t.Fatalf("LiveOIFs = %v", out)
	}
	for _, ifc := range out {
		if ifc == ifs[1] {
			t.Error("arrival iface included")
		}
	}
	// Deterministic order.
	if out[0].Index > out[1].Index {
		t.Error("not sorted")
	}
}

func TestOIFEmptyAndRemove(t *testing.T) {
	ifs := testIfaces(2)
	e := NewEntry(Key{Group: addr.GroupForIndex(0), RPBit: true})
	if !e.OIFEmpty(0) {
		t.Error("new entry should have empty oifs")
	}
	e.AddOIF(ifs[0], 100)
	if e.OIFEmpty(50) {
		t.Error("oifs not empty")
	}
	e.RemoveOIF(ifs[0])
	if !e.OIFEmpty(50) {
		t.Error("remove failed")
	}
}

func TestJoinClearsPendingPrune(t *testing.T) {
	ifs := testIfaces(1)
	e := NewEntry(Key{Group: addr.GroupForIndex(0), RPBit: true})
	o := e.AddOIF(ifs[0], 100)
	o.PrunePending = true
	o.PruneDeadline = 80
	e.AddOIF(ifs[0], 120) // join override
	if o.PrunePending {
		t.Error("join did not cancel pending prune")
	}
}

func TestSweepExpiredOIFsAndDeadEntries(t *testing.T) {
	ifs := testIfaces(2)
	tb := NewTable(new(Arena))
	g := addr.GroupForIndex(0)
	e, _ := tb.Upsert(Key{Group: g, RPBit: true}, 0)
	e.AddOIF(ifs[0], 100)
	e.AddLocalOIF(ifs[1])
	tb.Sweep(200)
	if e.OIF(ifs[0].Index) != nil {
		t.Error("expired oif not swept")
	}
	if e.OIF(ifs[1].Index) == nil {
		t.Error("local oif swept")
	}
	// Entry deletion after DeleteAt.
	e2, _ := tb.Upsert(Key{Source: addr.V4(10, 0, 0, 1), Group: g}, 0)
	e2.DeleteAt = 300
	if removed := tb.Sweep(250); len(removed) != 0 {
		t.Error("premature deletion")
	}
	removed := tb.Sweep(300)
	if len(removed) != 1 || removed[0] != e2 {
		t.Fatalf("removed = %v", removed)
	}
	if tb.SG(addr.V4(10, 0, 0, 1), g) != nil {
		t.Error("entry survived sweep")
	}
}

// TestAddOIFLeavesDeleteAt: a scheduled deletion is the engine's upstream
// state (PIM-SM's PrunePending, DESIGN.md §21), so adding an oif, local or
// downstream, must not cancel it behind the engine's back.
func TestAddOIFLeavesDeleteAt(t *testing.T) {
	ifs := testIfaces(2)
	tb := NewTable(new(Arena))
	e, _ := tb.Upsert(Key{Group: addr.GroupForIndex(0), RPBit: true}, 0)
	e.DeleteAt = 100
	e.AddOIF(ifs[0], 200)
	e.AddLocalOIF(ifs[1])
	if e.DeleteAt != 100 {
		t.Errorf("DeleteAt = %v after adding oifs, want 100", e.DeleteAt)
	}
}

func TestForGroupDeterministicOrder(t *testing.T) {
	tb := NewTable(new(Arena))
	g := addr.GroupForIndex(0)
	tb.Upsert(Key{Source: addr.V4(10, 0, 0, 2), Group: g}, 0)
	tb.Upsert(Key{Group: g, RPBit: true}, 0)
	tb.Upsert(Key{Source: addr.V4(10, 0, 0, 1), Group: g}, 0)
	tb.Upsert(Key{Source: addr.V4(10, 0, 0, 1), Group: g, RPBit: true}, 0)
	tb.Upsert(Key{Group: addr.GroupForIndex(1), RPBit: true}, 0)
	var seen []string
	tb.ForGroup(g, func(e *Entry) { seen = append(seen, e.String()) })
	want := []string{
		"(*," + g.String() + ")",
		"(10.0.0.1," + g.String() + ")",
		"(10.0.0.1," + g.String() + ")RPbit",
		"(10.0.0.2," + g.String() + ")",
	}
	if len(seen) != len(want) {
		t.Fatalf("seen = %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("order[%d] = %q, want %q", i, seen[i], want[i])
		}
	}
	n := 0
	tb.ForEach(func(*Entry) { n++ })
	if n != 5 {
		t.Errorf("ForEach visited %d", n)
	}
}

func TestEntryStringNotation(t *testing.T) {
	g := addr.GroupForIndex(0)
	s := addr.V4(10, 0, 0, 1)
	if got := NewEntry(Key{Group: g, RPBit: true}).String(); got != "(*,225.0.0.0)" {
		t.Errorf("wildcard String = %q", got)
	}
	if got := NewEntry(Key{Source: s, Group: g}).String(); got != "(10.0.0.1,225.0.0.0)" {
		t.Errorf("SG String = %q", got)
	}
	if got := NewEntry(Key{Source: s, Group: g, RPBit: true}).String(); got != "(10.0.0.1,225.0.0.0)RPbit" {
		t.Errorf("RPbit String = %q", got)
	}
}

// TestOIFFootprint pins an outgoing interface at 32 bytes: the inline list
// holds one per entry, and the flood-and-prune Pruned flag rides in the
// padding after the two other flags.
func TestOIFFootprint(t *testing.T) {
	if size := unsafe.Sizeof(OIF{}); size != 32 {
		t.Errorf("OIF is %d bytes, want 32", size)
	}
}

// TestEntryFootprint pins an entry at 104 bytes — one inline oif, the
// spill array as a pointer and two 16-bit counts, a 32-bit life beside
// them, UpstreamNeighbor after the two flags, no stored list length and no
// per-entry fan-out cache — and an arena slab at less than one entry of
// allocator slack: 1 024 entries of 104 bytes are exactly 13 pages, and
// the runtime keeps a large object's type in its span, not in a header.
func TestEntryFootprint(t *testing.T) {
	const size = 104
	if got := unsafe.Sizeof(Entry{}); got != size {
		t.Errorf("Entry is %d bytes, want %d", got, size)
	}
	// Whatever else allocates meanwhile only adds bytes, so the least of a
	// few tries is the slabs' own.
	const n = 16
	got := uint64(1 << 62)
	for try := 0; try < 5; try++ {
		slabs := make([][]Entry, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range slabs {
			slabs[i] = make([]Entry, slabSize)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(slabs)
		got = min(got, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	if slack := got - slabSize*size; got < slabSize*size || slack >= size {
		t.Errorf("a slab of %d entries takes %d heap bytes, %d of them slack; want under one entry", slabSize, got, slack)
	}
}

// TestAddClearsPrune: a join, a graft or a local member re-attaches a
// pruned branch at once.
func TestAddClearsPrune(t *testing.T) {
	ifs := testIfaces(1)
	for _, add := range []func(e *Entry) *OIF{
		func(e *Entry) *OIF { return e.AddOIF(ifs[0], 1<<40) },
		func(e *Entry) *OIF { return e.AddLocalOIF(ifs[0]) },
	} {
		e := NewEntry(Key{Source: addr.V4(10, 100, 1, 1), Group: addr.GroupForIndex(0)})
		o := e.AddOIF(ifs[0], 1<<40)
		o.Pruned, o.PruneDeadline = true, 1000
		if o.Live(10) {
			t.Fatal("pruned oif live before its deadline")
		}
		if o = add(e); o.Pruned || !o.Live(10) {
			t.Errorf("re-added oif still pruned: %+v", *o)
		}
	}
}
