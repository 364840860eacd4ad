package netsim

// Hierarchical timing wheel (Varghese & Lauck, SOSP '87): the backing store
// of every Scheduler NewScheduler returns. Four levels of 256 slots at a 1µs base
// tick cover 2^32 µs (~71.6 simulated minutes) of lookahead; anything
// further out parks in an overflow heap and migrates into the wheels one
// 2^32 µs block at a time. Insert is O(1) (a byte extraction and a slice
// append), cancel is O(1) lazy (the entry is dropped when the cursor or a
// cascade next touches it), and advancing costs O(slots skipped) amortized
// — versus O(log n) per operation plus compaction sweeps on the reference
// heap, which dominates at soft-state scale (ISSUE 5, DESIGN.md §11).
//
// The ISSUE sketches a 1ms base tick; we use 1µs so that a level-0 slot
// holds exactly one timestamp. That makes same-deadline FIFO trivial —
// slot append order IS global insertion order — instead of requiring a
// sort or a sub-slot bucket walk at fire time, and 4×256 slots still span
// over an hour of simulated time, far beyond any timer the protocols set.
//
// Determinism contract (what the differential tests in wheel_test.go pin):
// events fire in strictly increasing (at, seq) order, bit-identical to the
// reference heap. The argument, for the auditors:
//
//   - Placement is a pure function of (at, cur): an event lands at level
//     l = index of the highest byte where at differs from cur (level 0 if
//     none). So two same-deadline events placed under the same cursor go
//     to the same slot, in push (= seq) order.
//   - The cursor never skips an occupied slot. It only advances to the
//     exact base of the next occupied slot (draining it at level 0,
//     cascading it at levels 1-3), so any upper-level slot holding an
//     event is cascaded before the cursor enters that slot's time range —
//     a later same-deadline push therefore can never land "below" an
//     earlier one that is still waiting upstairs.
//   - Cascades preserve slot order, and a cascaded slot re-places into
//     strictly lower levels, so the drain loop always makes progress.
//   - All overflow events lie in later 2^32 µs blocks than every in-wheel
//     event (they differ from cur above bit 32, and at >= now >= cur), so
//     migrating a whole block only when the wheels are empty keeps the
//     global order intact; the overflow heap itself pops in (at, seq)
//     order.
//
// Cursor invariant: cur <= now whenever the wheel holds any entry, so a
// new push (at >= now) is never behind the cursor. next(limit) never moves
// cur past limit, RunUntil sets now to the deadline afterwards, and a push
// into a fully empty wheel re-seats cur at the scheduler clock.

import (
	"cmp"
	"math/bits"
	"slices"
)

// UseWheel reports that Schedulers are backed by the timing wheel. It is the
// constant true; it survives only because the frozen benchmark driver calls
// netsim.PrepSchedulerBench(netsim.UseWheel()) (benchmarks/pimperf/trace.go).
func UseWheel() bool { return true }

const (
	wheelLevels = 4
	wheelSlots  = 256
	wheelMask   = wheelSlots - 1
	// blockMask isolates the low 32 bits: the span of all four levels.
	// Events beyond cur's 2^32 µs block go to the overflow heap.
	blockMask = Time(1)<<32 - 1
)

type schedWheel struct {
	// cur is the wheel cursor: the time whose byte decomposition indexes
	// the four levels. All in-wheel events have at >= cur.
	cur Time
	// total counts every entry anywhere in the wheel (slots, due buffer,
	// overflow), including stopped-but-unreaped ones; backs Pending().
	total int
	// nwheel counts entries currently in level slots (not due/overflow),
	// so the drain loop knows when to fall through to overflow migration.
	nwheel int
	// levels[l][i] holds events whose deadline matches cur above byte l
	// and has byte l equal to i. At level 0 a slot is a single timestamp,
	// so append order is fire order.
	levels [wheelLevels][wheelSlots][]event
	// free[c] holds the emptied backing arrays of drained slots whose
	// capacity is in [2^c, 2^(c+1)). A slot owns an array only while it holds
	// events, and grows by trading it for a larger pooled one. Which of the
	// 1024 slots a periodic burst lands in moves with the clock, so capacity
	// kept per slot is re-grown whenever a burst meets a slot index it has
	// not used before — for hundreds of periods — while capacity kept here is
	// found by the next burst wherever it lands.
	free [32][][]event
	// occ[l] is a 256-bit occupancy bitmap per level so the cursor can
	// jump straight to the next non-empty slot.
	occ [wheelLevels][wheelSlots / 64]uint64
	// ndead counts cancelled entries still parked in the structure. Lazy
	// cancel alone is quadratic-ish at soft-state scale: protocols re-arm
	// long-deadline timers on every refresh, so far-future slots accumulate
	// dead entries for simulated minutes before the cursor would reclaim
	// them, and the slot slices grow without bound. Scheduler.Stop/Reset
	// trigger compact() once the dead outnumber the live (the same policy
	// as the reference heap's compaction).
	ndead int
	// due is the slot currently being fired, copied out so callbacks can
	// push into the very slot being drained (nested same-time scheduling)
	// without invalidating iteration. Backing array is reused forever.
	due     []event
	dueHead int
	// overflow holds events beyond the wheels' span, as a heap ordered by
	// event.before, sharing the sift helpers with schedHeap.
	overflow []event
}

func newWheel() *schedWheel { return &schedWheel{} }

// push inserts one event; now is the scheduler clock, a lower bound on
// every current and future deadline. O(1): a level computation, a slice
// append, a bitmap OR — no sifting, no sorting.
func (w *schedWheel) push(ev event, now Time) {
	if w.total == 0 {
		// Empty wheel: the cursor is unconstrained, so re-seat it at the
		// clock. Anything scheduled from here on has at >= now, keeping
		// the cursor invariant. This also repairs the one case where cur
		// can drift past now (a Step() that drained only dead entries).
		w.cur = now
	}
	w.total++
	if uint64(ev.at^w.cur) > uint64(blockMask) {
		w.overflow = append(w.overflow, ev)
		siftUp(w.overflow)
		return
	}
	w.place(ev)
}

// place files an in-block event (at within cur's 2^32 µs block, at >= cur)
// into the level addressed by the highest byte where at differs from cur.
func (w *schedWheel) place(ev event) {
	x := uint64(ev.at ^ w.cur)
	l := 0
	if x != 0 {
		l = (bits.Len64(x) - 1) >> 3
	}
	idx := int(uint64(ev.at)>>(8*uint(l))) & wheelMask
	slot := w.levels[l][idx]
	if len(slot) == cap(slot) {
		grown := append(w.grab(max(2*cap(slot), 4)), slot...)
		w.release(slot)
		slot = grown
	}
	w.levels[l][idx] = append(slot, ev)
	w.occ[l][idx>>6] |= 1 << (uint(idx) & 63)
	w.nwheel++
}

// grab returns an empty backing array of capacity at least n, pooled if one
// is, preferring the smallest that fits.
func (w *schedWheel) grab(n int) []event {
	for c := bits.Len(uint(n - 1)); c < len(w.free); c++ {
		if k := len(w.free[c]); k > 0 {
			buf := w.free[c][k-1]
			w.free[c] = w.free[c][:k-1]
			return buf
		}
	}
	return make([]event, 0, n)
}

// release zeroes slot, so that a pooled array pins no timer, closure or
// frame, and pools its backing array.
func (w *schedWheel) release(slot []event) {
	if cap(slot) == 0 {
		return
	}
	clear(slot)
	c := bits.Len(uint(cap(slot))) - 1
	w.free[c] = append(w.free[c], slot[:0])
}

// next removes and returns the earliest live event with at <= limit,
// advancing the cursor no further than limit. Dead (stopped) entries met
// along the way are reclaimed here — this is where lazy cancel pays.
func (w *schedWheel) next(limit Time) (event, bool) {
	for {
		// Drain the due buffer first: it holds the slot at exactly cur,
		// including events pushed into it by callbacks mid-drain.
		for w.dueHead < len(w.due) {
			ev := w.due[w.dueHead]
			w.due[w.dueHead] = event{} // release for GC
			w.dueHead++
			if w.dueHead == len(w.due) {
				w.due = w.due[:0] // keep capacity
				w.dueHead = 0
			}
			w.total--
			if ev.dead() {
				w.ndead--
				continue
			}
			return ev, true
		}

		if w.nwheel > 0 {
			// Level 0: the slot index is the timestamp's low byte, so the
			// next occupied slot at or after cur's is the next deadline in
			// this 256 µs window.
			if i := nextSet(&w.occ[0], int(w.cur)&wheelMask); i >= 0 {
				slotTime := (w.cur &^ wheelMask) + Time(i)
				if slotTime > limit {
					return event{}, false
				}
				w.cur = slotTime
				w.fillDue(i)
				continue
			}
			// Levels 1-3: jump the cursor to the base of the next occupied
			// slot and cascade its events down. The slot at the cursor's
			// own index is always empty (placement puts an event there
			// only if its byte differs from cur's), so scanning from the
			// cursor's index inclusive is safe.
			advanced := false
			for l := 1; l < wheelLevels; l++ {
				j := nextSet(&w.occ[l], int(uint64(w.cur)>>(8*uint(l)))&wheelMask)
				if j < 0 {
					continue
				}
				shift := 8 * uint(l)
				base := (w.cur &^ (Time(1)<<(shift+8) - 1)) + Time(j)<<shift
				if base > limit {
					return event{}, false
				}
				if base <= w.cur {
					panic("netsim: timing wheel cursor failed to advance")
				}
				w.cur = base
				w.cascade(l, j)
				advanced = true
				break
			}
			if advanced {
				continue
			}
			panic("netsim: timing wheel count positive but no occupied slot")
		}

		// Wheels empty: migrate the earliest overflow block, if it is
		// within the limit. Every overflow event is in a later block than
		// anything the wheels held, so order is preserved.
		for len(w.overflow) > 0 && w.overflow[0].dead() {
			eventHeapPop(&w.overflow)
			w.total--
			w.ndead--
		}
		if len(w.overflow) == 0 {
			return event{}, false
		}
		blockBase := w.overflow[0].at &^ blockMask
		if blockBase > limit {
			return event{}, false
		}
		w.cur = blockBase
		for len(w.overflow) > 0 && w.overflow[0].at&^blockMask == blockBase {
			ev := eventHeapPop(&w.overflow)
			if ev.dead() {
				w.total--
				w.ndead--
				continue
			}
			w.place(ev)
		}
	}
}

// fillDue moves level-0 slot i into the due buffer and pools the slot's
// emptied array, so steady-state scheduling stays allocation-free. Every
// entry of the slot shares the cursor's deadline, so orderBatch restoring
// (birth instant, order key) order restores event.before order exactly.
func (w *schedWheel) fillDue(i int) {
	slot := w.levels[0][i]
	n := len(slot)
	start := len(w.due)
	w.due = append(w.due, slot...)
	w.levels[0][i] = nil
	w.release(slot)
	w.occ[0][i>>6] &^= 1 << (uint(i) & 63)
	w.nwheel -= n
	orderBatch(w.due[start:])
}

// shortRun is the longest same-birth run orderBatch insertion-sorts; longer
// ones go to slices.SortFunc, so a same-instant run of thousands of
// deliveries (a 10 000-router flood) cannot go quadratic. Up to 16 insertion
// sort wins on shuffled and on reversed runs alike (BenchmarkRunSort).
const shortRun = 16

// orderBatch sorts one same-deadline batch by (bs, ord) in place.
//
// A slot holds its entries in append (= scheduling) order. The scheduler
// clock is monotone and cascades and overflow migration keep slot order, so
// birth instants are non-decreasing by construction, and timer/Post entries
// (ord = monotone seq) are in order among themselves. What append order does
// not give is the order key inside one birth-instant run: a delivery's
// structural deliveryOrd follows the sender's node ID, and forwarders
// transmit in the order packets reached them, not in node-ID order. So each
// bs run is checked and, when scrambled, sorted on its own — the batch never
// needs a general sort. The exception is a cross-shard arrival spliced in at
// a barrier: its birth instant may precede entries already appended, and a
// batch holding such a bs inversion takes the general (bs, ord) sort.
func orderBatch(batch []event) {
	for lo := 0; lo < len(batch); {
		bs, sorted := batch[lo].bs, true
		hi := lo + 1
		for ; hi < len(batch) && batch[hi].bs == bs; hi++ {
			if batch[hi].ord < batch[hi-1].ord {
				sorted = false
			}
		}
		if hi < len(batch) && batch[hi].bs < bs {
			slices.SortFunc(batch, func(a, b event) int {
				if a.bs != b.bs {
					return cmp.Compare(a.bs, b.bs)
				}
				return cmp.Compare(a.ord, b.ord)
			})
			return
		}
		if !sorted {
			sortRun(batch[lo:hi])
		}
		lo = hi
	}
}

// sortRun sorts one same-birth run by order key.
func sortRun(run []event) {
	if len(run) > shortRun {
		slices.SortFunc(run, byOrd)
		return
	}
	insertRun(run)
}

func byOrd(a, b event) int { return cmp.Compare(a.ord, b.ord) }

// insertRun insertion-sorts a run by order key; no comparator call, so on
// the short runs fillDue meets it beats slices.SortFunc (BenchmarkRunSort).
func insertRun(run []event) {
	for i := 1; i < len(run); i++ {
		ev, j := run[i], i
		for ; j > 0 && run[j-1].ord > ev.ord; j-- {
			run[j] = run[j-1]
		}
		run[j] = ev
	}
}

// peek returns a lower bound on the earliest live deadline anywhere in the
// wheel (exact for due-buffer, level-0, and overflow entries; the slot base
// for events parked in levels 1-3), reaping dead entries that surface at
// the front of the due buffer or the overflow heap.
func (w *schedWheel) peek() (Time, bool) {
	for w.dueHead < len(w.due) {
		ev := w.due[w.dueHead]
		if !ev.dead() {
			return ev.at, true
		}
		w.due[w.dueHead] = event{}
		w.dueHead++
		if w.dueHead == len(w.due) {
			w.due = w.due[:0]
			w.dueHead = 0
		}
		w.total--
		w.ndead--
	}
	if w.nwheel > 0 {
		if i := nextSet(&w.occ[0], int(w.cur)&wheelMask); i >= 0 {
			return (w.cur &^ wheelMask) + Time(i), true
		}
		best := maxTime
		for l := 1; l < wheelLevels; l++ {
			j := nextSet(&w.occ[l], int(uint64(w.cur)>>(8*uint(l)))&wheelMask)
			if j < 0 {
				continue
			}
			shift := 8 * uint(l)
			base := (w.cur &^ (Time(1)<<(shift+8) - 1)) + Time(j)<<shift
			if base < best {
				best = base
			}
		}
		if best != maxTime {
			return best, true
		}
	}
	for len(w.overflow) > 0 && w.overflow[0].dead() {
		eventHeapPop(&w.overflow)
		w.total--
		w.ndead--
	}
	if len(w.overflow) > 0 {
		return w.overflow[0].at, true
	}
	return 0, false
}

// cascade re-places the events of slot (l, j) — the cursor has just reached
// the slot's base — into strictly lower levels, dropping dead entries.
// Iteration order is preserved, and place never appends back into the slot
// being drained (nor can it be handed its array, which is pooled only
// afterwards).
func (w *schedWheel) cascade(l, j int) {
	slot := w.levels[l][j]
	w.occ[l][j>>6] &^= 1 << (uint(j) & 63)
	w.nwheel -= len(slot)
	for k := range slot {
		ev := slot[k]
		if ev.dead() {
			w.total--
			w.ndead--
			continue
		}
		w.place(ev)
	}
	w.levels[l][j] = nil
	w.release(slot)
}

// compact sweeps every slot, the due buffer, and the overflow heap,
// dropping dead entries in place. Order is preserved: each slot (and the
// due buffer) is filtered without reordering, and the overflow heap is
// re-heapified, which keeps its (at, seq) pop order. O(entries + slots);
// triggered by Scheduler.Stop/Reset when the dead outnumber the live, so
// its cost amortizes against the cancellations that created the garbage.
func (w *schedWheel) compact() {
	live := func(evs []event) []event {
		kept := evs[:0]
		for _, ev := range evs {
			if !ev.dead() {
				kept = append(kept, ev)
			}
		}
		for i := len(kept); i < len(evs); i++ {
			evs[i] = event{} // release Timer pointers for GC
		}
		return kept
	}

	// The consumed prefix of due is already zeroed; filter the remainder
	// down onto the front of the backing array.
	rest := live(append(w.due[:0], w.due[w.dueHead:]...))
	for i := len(rest); i < len(w.due); i++ {
		w.due[i] = event{}
	}
	w.due = rest
	w.dueHead = 0

	w.nwheel = 0
	for l := 0; l < wheelLevels; l++ {
		for j := 0; j < wheelSlots; j++ {
			if len(w.levels[l][j]) == 0 {
				continue
			}
			slot := live(w.levels[l][j])
			w.levels[l][j] = slot
			if len(slot) == 0 {
				w.occ[l][j>>6] &^= 1 << (uint(j) & 63)
			}
			w.nwheel += len(slot)
		}
	}

	w.overflow = live(w.overflow)
	for i := len(w.overflow)/2 - 1; i >= 0; i-- {
		siftDown(w.overflow, i)
	}

	w.total = len(w.due) + w.nwheel + len(w.overflow)
	w.ndead = 0
}

// nextSet returns the index of the first set bit at or after from in a
// 256-bit bitmap, or -1.
func nextSet(bm *[wheelSlots / 64]uint64, from int) int {
	word := from >> 6
	mask := ^uint64(0) << (uint(from) & 63)
	for ; word < len(bm); word++ {
		if b := bm[word] & mask; b != 0 {
			return word<<6 + bits.TrailingZeros64(b)
		}
		mask = ^uint64(0)
	}
	return -1
}
