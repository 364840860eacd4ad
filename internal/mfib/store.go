package mfib

import (
	"cmp"
	"slices"
	"unsafe"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// This file holds the entry store behind Table (DESIGN.md §16): entries
// kept by value in append-only arena slabs ([]Entry, never reallocated, so
// &slab[i] is stable for the table's lifetime) addressed by 32-bit handles,
// with an open-addressed (linear probe + backward-shift delete) index from
// Key to handle and a sorted key slice driving the deterministic walks. The
// GC sees a few dozen slabs per router instead of one object per entry plus
// one per oif. TestFlatMapStoreLockstep holds every observable — lookups,
// walk order, walk-mutation visibility, Sweep results, Life() stamps — to a
// test-local map[Key]*Entry model.
//
// Slot recycling contract: Delete marks the slot dead but leaves the fields
// in place, so entries returned by Sweep stay readable until the next
// insertion into the table. Recycling bumps the slot's plan generation
// (never resets it) and the table stamps a fresh Life() on every creation,
// so stale plan dependencies and timer closures can never revalidate
// against a later incarnation of the same key or slot.

// Handle addresses an entry in the arena: slot+1, so the zero Handle
// means "none".
type Handle uint32

const (
	// 8 entries per slab: small enough that a lightly loaded router (a
	// handful of entries) doesn't pay for a mostly empty arena, large
	// enough that the arena stays a handful of objects at full load.
	// Slabs are never reallocated, so &slab[i] is stable for an entry's
	// whole slot lifetime.
	slabShift = 3
	slabSize  = 1 << slabShift
	slabMask  = slabSize - 1
)

// rhIndex is the open-addressed Key → slot index: linear probing with
// backward-shift deletion (the robin-hood deletion rule), power-of-two
// capacity, grown at 80% load. Values are slot+1 with 0 meaning empty.
// The index stores no key copies — a probed slot's key is read from its
// arena cell — so each index slot costs 4 bytes. The probe loops live on
// Table (indexGet/indexPut/indexDel) because they need the slabs.
type rhIndex struct {
	vals []uint32
	mask uint32
	n    int
}

func hashKey(k Key) uint32 {
	x := uint64(k.Source)<<32 | uint64(k.Group)
	if k.RPBit {
		x ^= 0x9e3779b97f4a7c15
	}
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint32(x)
}

// slotKey reads a slot's key straight from its arena cell; every slot the
// index holds is live (Delete removes the index mapping before marking the
// slot dead), so the key field is always current.
func (t *Table) slotKey(slot int) Key { return t.entryAt(slot).Key }

func (t *Table) indexGet(k Key) (int, bool) {
	ix := &t.index
	if ix.n == 0 {
		return 0, false
	}
	i := hashKey(k) & ix.mask
	for {
		v := ix.vals[i]
		if v == 0 {
			return 0, false
		}
		if t.slotKey(int(v-1)) == k {
			return int(v - 1), true
		}
		i = (i + 1) & ix.mask
	}
}

// indexPut inserts k → slot; the caller guarantees k is absent and has
// already stamped k into the slot's arena cell.
func (t *Table) indexPut(k Key, slot int) {
	ix := &t.index
	if len(ix.vals) == 0 {
		t.indexGrow(16)
	} else if (ix.n+1)*5 > len(ix.vals)*4 {
		t.indexGrow(len(ix.vals) * 2)
	}
	i := hashKey(k) & ix.mask
	for ix.vals[i] != 0 {
		i = (i + 1) & ix.mask
	}
	ix.vals[i] = uint32(slot + 1)
	ix.n++
}

func (t *Table) indexGrow(capacity int) {
	ix := &t.index
	oldVals := ix.vals
	ix.vals = make([]uint32, capacity)
	ix.mask = uint32(capacity - 1)
	for _, v := range oldVals {
		if v == 0 {
			continue
		}
		j := hashKey(t.slotKey(int(v-1))) & ix.mask
		for ix.vals[j] != 0 {
			j = (j + 1) & ix.mask
		}
		ix.vals[j] = v
	}
}

// indexDel removes k, backward-shifting the probe chain so no tombstones
// are needed: each following element whose ideal position lies at or before
// the hole moves into it.
func (t *Table) indexDel(k Key) bool {
	ix := &t.index
	if ix.n == 0 {
		return false
	}
	i := hashKey(k) & ix.mask
	for {
		v := ix.vals[i]
		if v == 0 {
			return false
		}
		if t.slotKey(int(v-1)) == k {
			break
		}
		i = (i + 1) & ix.mask
	}
	ix.n--
	j := i
	for {
		ix.vals[i] = 0
		for {
			j = (j + 1) & ix.mask
			if ix.vals[j] == 0 {
				return true
			}
			ideal := hashKey(t.slotKey(int(ix.vals[j]-1))) & ix.mask
			if ((j - ideal) & ix.mask) >= ((j - i) & ix.mask) {
				break
			}
		}
		ix.vals[i] = ix.vals[j]
		i = j
	}
}

// compareKeys is the canonical walk order: (Group, Source, RPBit).
func compareKeys(a, b Key) int {
	if a.Group != b.Group {
		return cmp.Compare(a.Group, b.Group)
	}
	if a.Source != b.Source {
		return cmp.Compare(a.Source, b.Source)
	}
	return boolToInt(a.RPBit) - boolToInt(b.RPBit)
}

// Table stores a router's multicast forwarding entries. The zero value is
// an empty table.
type Table struct {
	slabs [][]Entry
	used  int      // slots ever allocated
	free  []Handle // recycled slots
	live  int
	index rhIndex
	order []Key // live keys sorted by compareKeys

	// lifeSeq stamps each created entry with a fresh incarnation id, so
	// delete/re-create of one key is detectable.
	lifeSeq uint64

	// walks is the per-depth key-snapshot scratch for the deterministic
	// walks; walks nest (a ForGroup inside a ForEach), so each depth keeps
	// its own reusable buffer.
	walks [][]Key
	depth int
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

func (t *Table) entryAt(slot int) *Entry {
	return &t.slabs[slot>>slabShift][slot&slabMask]
}

// Get returns the entry for the exact key, or nil.
func (t *Table) Get(k Key) *Entry {
	if slot, ok := t.indexGet(k); ok {
		return t.entryAt(slot)
	}
	return nil
}

// HandleOf returns the handle for k, or 0 when absent.
func (t *Table) HandleOf(k Key) Handle {
	if slot, ok := t.indexGet(k); ok {
		return Handle(slot + 1)
	}
	return 0
}

// At resolves a handle to its entry, or nil if the slot is out of range or
// currently dead.
func (t *Table) At(h Handle) *Entry {
	if h == 0 || int(h) > t.used {
		return nil
	}
	e := t.entryAt(int(h) - 1)
	if e.dead {
		return nil
	}
	return e
}

// Wildcard returns the (*,G) entry, or nil.
func (t *Table) Wildcard(g addr.IP) *Entry {
	return t.Get(Key{Group: g, RPBit: true})
}

// SG returns the (S,G) shortest-path entry, or nil.
func (t *Table) SG(s, g addr.IP) *Entry {
	return t.Get(Key{Source: s, Group: g})
}

// SGRpt returns the (S,G) RP-bit negative-cache entry, or nil.
func (t *Table) SGRpt(s, g addr.IP) *Entry {
	return t.Get(Key{Source: s, Group: g, RPBit: true})
}

// Upsert returns the entry for k, creating it if absent; created reports
// whether it was new. The time argument is unused: an entry keeps no
// creation time.
func (t *Table) Upsert(k Key, _ netsim.Time) (e *Entry, created bool) {
	if e = t.Get(k); e != nil {
		return e, false
	}
	t.lifeSeq++
	var slot int
	if n := len(t.free); n > 0 {
		slot = int(t.free[n-1]) - 1
		t.free = t.free[:n-1]
	} else {
		if t.used>>slabShift == len(t.slabs) {
			t.slabs = append(t.slabs, make([]Entry, slabSize))
		}
		slot = t.used
		t.used++
	}
	e = t.entryAt(slot)
	// Recycle in place: keep the spill/plan capacities, continue the plan
	// generation, and zero everything else.
	spill := e.oifSpill[:0]
	plans := e.plans[:0]
	gen := e.gen + 1
	*e = Entry{Key: k, Wildcard: k.Source == 0,
		gen: gen, life: t.lifeSeq, oifSpill: spill, plans: plans}
	t.indexPut(k, slot)
	pos, _ := slices.BinarySearchFunc(t.order, k, compareKeys)
	t.order = slices.Insert(t.order, pos, k)
	t.live++
	return e, true
}

// Delete removes an entry. The slot is marked dead and recycled by a later
// Upsert; its fields stay readable until then.
func (t *Table) Delete(k Key) {
	slot, ok := t.indexGet(k)
	if !ok {
		return
	}
	t.indexDel(k)
	e := t.entryAt(slot)
	e.dead = true
	pos, found := slices.BinarySearchFunc(t.order, k, compareKeys)
	if found {
		t.order = slices.Delete(t.order, pos, pos+1)
	}
	t.free = append(t.free, Handle(slot+1))
	t.live--
}

// Len returns the number of entries — the "state" axis of the paper's
// overhead metric.
func (t *Table) Len() int { return t.live }

// ForGroup calls fn for every entry of the group, in deterministic order.
func (t *Table) ForGroup(g addr.IP, fn func(*Entry)) {
	// order is group-contiguous: binary-search the range start.
	lo, _ := slices.BinarySearchFunc(t.order, Key{Group: g}, compareKeys)
	hi := lo
	for hi < len(t.order) && t.order[hi].Group == g {
		hi++
	}
	t.walk(lo, hi, fn)
}

// ForEach calls fn for every entry in deterministic order.
func (t *Table) ForEach(fn func(*Entry)) { t.walk(0, len(t.order), fn) }

// walk snapshots order[lo:hi], then visits each entry that is still
// present, so fn may insert or delete entries mid-walk: entries deleted
// after the snapshot are skipped, entries created after it are not visited.
func (t *Table) walk(lo, hi int, fn func(*Entry)) {
	d := t.depth
	t.depth++
	if d >= len(t.walks) {
		t.walks = append(t.walks, nil)
	}
	keys := append(t.walks[d][:0], t.order[lo:hi]...)
	t.walks[d] = keys
	for _, k := range keys {
		if e := t.Get(k); e != nil {
			fn(e)
		}
	}
	t.depth--
}

// Sweep removes entries whose DeleteAt deadline has passed and prunes
// expired non-local oifs; it returns the removed entries so the protocol
// can emit triggered prunes. The returned entries are dead slots whose
// fields stay readable until the next Upsert.
func (t *Table) Sweep(now netsim.Time) []*Entry {
	var removed []*Entry
	t.ForEach(func(e *Entry) {
		for i := e.OIFCount() - 1; i >= 0; i-- {
			o := e.oifAt(i)
			if !o.LocalMember && now > o.Expires {
				e.oifRemoveAt(i)
				e.Touch()
			}
		}
		if e.DeleteAt != 0 && now >= e.DeleteAt {
			removed = append(removed, e)
			t.Delete(e.Key)
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

// Footprint sizes, for the Bytes estimator.
const (
	entryBytes = int64(unsafe.Sizeof(Entry{}))
	oifBytes   = int64(unsafe.Sizeof(OIF{}))
	planBytes  = int64(unsafe.Sizeof(plan{}))
	keyBytes   = int64(unsafe.Sizeof(Key{}))
	ptrBytes   = int64(unsafe.Sizeof((*Entry)(nil)))
)

// Bytes estimates the table's resident state footprint: the arena slabs
// including free slack, the index array, the order slice, plus the spill
// and compiled-plan capacities hanging off live entries. It is a
// deterministic estimator, not a heap measurement.
func (t *Table) Bytes() int64 {
	b := int64(len(t.slabs)) * slabSize * entryBytes
	b += int64(len(t.index.vals)) * 4
	b += int64(cap(t.order)) * keyBytes
	b += int64(cap(t.free)) * 4
	for _, k := range t.order {
		e := t.Get(k)
		b += int64(cap(e.oifSpill)) * oifBytes
		b += int64(cap(e.plans)) * planBytes
		for i := range e.plans {
			b += int64(cap(e.plans[i].out)) * ptrBytes
		}
	}
	return b
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
