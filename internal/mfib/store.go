package mfib

import (
	"cmp"
	"slices"
	"unsafe"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// This file holds the entry store behind Table (DESIGN.md §16). Every
// table of one simulation keeps its entries in one Arena: entries by value
// in append-only slabs ([]Entry, never reallocated, so &slab[i] is stable
// for the simulation's lifetime) and one free list of recycled slots. A
// Table holds only an open-addressed (linear probe + backward-shift delete)
// index from Key to arena slot and a sorted key slice driving the
// deterministic walks. The GC sees a few large slabs per simulation instead
// of one object per entry plus one per oif. TestFlatMapStoreLockstep holds
// every observable — lookups, walk order, walk-mutation visibility, Sweep
// results, Life() stamps — to a test-local map[Key]*Entry model.
//
// Slot recycling contract: Delete frees the slot but leaves the fields in
// place, so entries returned by Sweep stay readable until the next Upsert
// into any table of the simulation. The arena stamps a fresh Life() on
// every creation, so a timer closure can never act on a later incarnation
// of the same key or slot.

const (
	// 1 024 entries per slab: 1 024 × 104 bytes is exactly 13 pages, so a
	// slab is one large object with no size-class slack
	// (TestEntryFootprint), and a simulation holds at most one slab of
	// unused slots.
	slabShift = 10
	slabSize  = 1 << slabShift
	slabMask  = slabSize - 1
)

// Arena holds the entries of every table of one simulation, their free
// list and the walks' key-snapshot stack. Chassis.NewMFIB hands each table
// the simulation's one arena (netsim.Scratch); a table that is emptied
// (Clear) or loses entries (Delete) returns their slots here, and any table
// of the simulation may recycle them. The simulator runs one simulation on
// one goroutine, so the arena needs no lock.
type Arena struct {
	slabs   [][]Entry
	used    int      // slots ever handed out: the arena's high-water
	free    []uint32 // recycled slots, the most recently freed last
	lifeSeq uint32

	// Walks nest (a ForGroup inside a ForEach, or a walk of one table
	// inside a walk of another), so each depth keeps its own reusable
	// key buffer; the stack holds only the deepest, largest snapshots any
	// table took, not each table's own.
	walks [][]Key
	depth int
}

// HighWater returns the number of slots the arena has ever handed out: its
// live entries plus its free list.
func (a *Arena) HighWater() int { return a.used }

func (a *Arena) at(slot uint32) *Entry {
	return &a.slabs[slot>>slabShift][slot&slabMask]
}

// alloc returns a slot for a new entry, recycling the most recently freed
// one first.
func (a *Arena) alloc() uint32 {
	if n := len(a.free); n > 0 {
		slot := a.free[n-1]
		a.free = a.free[:n-1]
		return slot
	}
	if a.used>>slabShift == len(a.slabs) {
		a.slabs = append(a.slabs, make([]Entry, slabSize))
	}
	a.used++
	return uint32(a.used - 1)
}

// rhIndex is the open-addressed Key → arena slot index: linear probing with
// backward-shift deletion (the robin-hood deletion rule), power-of-two
// capacity, grown at 80% load. Values are slot+1 with 0 meaning empty; n is
// the table's entry count. The index stores no key copies — a probed slot's
// key is read from its arena cell — so each index slot costs 4 bytes. The
// probe loops live on Table (indexGet/indexPut/indexDel) because they need
// the arena.
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

// slotKey reads the key of the slot an index value names straight from
// its arena cell; every slot the index holds is live (Delete removes the
// index mapping before freeing the slot), so the key field is current.
func (t *Table) slotKey(v uint32) Key { return t.arena.at(v - 1).Key }

func (t *Table) indexGet(k Key) (uint32, bool) {
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
		if t.slotKey(v) == k {
			return v - 1, true
		}
		i = (i + 1) & ix.mask
	}
}

// indexPut inserts k → slot; the caller guarantees k is absent and has
// already stamped k into the slot's arena cell.
func (t *Table) indexPut(k Key, slot uint32) {
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
	ix.vals[i] = slot + 1
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
		j := hashKey(t.slotKey(v)) & ix.mask
		for ix.vals[j] != 0 {
			j = (j + 1) & ix.mask
		}
		ix.vals[j] = v
	}
}

// indexDel removes k and returns its slot, backward-shifting the probe
// chain so no tombstones are needed: each following element whose ideal
// position lies at or before the hole moves into it.
func (t *Table) indexDel(k Key) (uint32, bool) {
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
		if t.slotKey(v) == k {
			break
		}
		i = (i + 1) & ix.mask
	}
	slot := ix.vals[i] - 1
	ix.n--
	j := i
	for {
		ix.vals[i] = 0
		for {
			j = (j + 1) & ix.mask
			if ix.vals[j] == 0 {
				return slot, true
			}
			ideal := hashKey(t.slotKey(ix.vals[j])) & ix.mask
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

// Table stores a router's multicast forwarding entries in its simulation's
// arena. Make one with NewTable.
type Table struct {
	arena *Arena
	index rhIndex
	order []Key // live keys sorted by compareKeys
}

// NewTable returns an empty table whose entries live in a.
func NewTable(a *Arena) *Table { return &Table{arena: a} }

// Get returns the entry for the exact key, or nil.
func (t *Table) Get(k Key) *Entry {
	if slot, ok := t.indexGet(k); ok {
		return t.arena.at(slot)
	}
	return nil
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
	a := t.arena
	a.lifeSeq++
	slot := a.alloc()
	e = a.at(slot)
	// Recycle in place: keep the spill storage and zero everything else.
	*e = Entry{Key: k, Wildcard: k.Source == 0, life: a.lifeSeq, spill: e.spill, spillCap: e.spillCap}
	t.indexPut(k, slot)
	pos, _ := slices.BinarySearchFunc(t.order, k, compareKeys)
	t.order = slices.Insert(t.order, pos, k)
	return e, true
}

// Delete removes an entry and frees its slot for any table of the arena
// to recycle; its fields stay readable until the next Upsert into one.
func (t *Table) Delete(k Key) {
	slot, ok := t.indexDel(k)
	if !ok {
		return
	}
	pos, _ := slices.BinarySearchFunc(t.order, k, compareKeys)
	t.order = slices.Delete(t.order, pos, pos+1)
	t.arena.free = append(t.arena.free, slot)
}

// Clear removes every entry, returning all of their slots to the arena. An
// engine empties its table with Clear on a restart or a flush rather than
// taking a new one, which would strand the old table's slots.
func (t *Table) Clear() {
	for i, v := range t.index.vals {
		if v != 0 {
			t.arena.free = append(t.arena.free, v-1)
			t.index.vals[i] = 0
		}
	}
	t.index.n = 0
	t.order = t.order[:0]
}

// Len returns the number of entries — the "state" axis of the paper's
// overhead metric.
func (t *Table) Len() int { return t.index.n }

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
	a := t.arena
	d := a.depth
	a.depth++
	if d >= len(a.walks) {
		a.walks = append(a.walks, nil)
	}
	keys := append(a.walks[d][:0], t.order[lo:hi]...)
	a.walks[d] = keys
	for _, k := range keys {
		if e := t.Get(k); e != nil {
			fn(e)
		}
	}
	a.depth--
}

// Sweep removes entries whose DeleteAt deadline has passed and prunes
// expired non-local oifs; it returns the removed entries so the protocol
// can emit triggered prunes. The returned entries are freed slots whose
// fields stay readable until the next Upsert into any table of the arena.
func (t *Table) Sweep(now netsim.Time) []*Entry {
	var removed []*Entry
	t.ForEach(func(e *Entry) {
		for i := e.OIFCount() - 1; i >= 0; i-- {
			o := e.oifAt(i)
			if !o.LocalMember && now > o.Expires {
				e.oifRemoveAt(i)
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
	keyBytes   = int64(unsafe.Sizeof(Key{}))
)

// Bytes estimates the table's resident state footprint: its live entries'
// arena slots, the index array, the order slice, plus the spill capacity
// hanging off live entries. The arena's free slots and slab slack belong to
// the simulation, not to a table, and are not charged. It is a
// deterministic estimator, not a heap measurement.
func (t *Table) Bytes() int64 {
	b := int64(t.index.n) * entryBytes
	b += int64(len(t.index.vals)) * 4
	b += int64(cap(t.order)) * keyBytes
	for _, k := range t.order {
		b += int64(t.Get(k).spillCap) * oifBytes
	}
	return b
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
