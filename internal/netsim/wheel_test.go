package netsim

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// ---------------------------------------------------------------------------
// Randomized differential test: the timing wheel must produce bit-identical
// fire order to the reference heap over arbitrary mixes of After/At/Post/
// Stop/Step/RunUntil/Run, including nested scheduling from callbacks and
// deadlines beyond the wheel's 2^32 µs span (overflow heap + block
// migration). This is the tentpole's determinism gate.
// ---------------------------------------------------------------------------

type schedOp struct {
	kind int  // 0 After, 1 At, 2 Post, 3 Stop, 4 Step, 5 RunUntil, 6 Run, 7 Reset
	arg  Time // delay / absolute time / stop index / run budget
	arg2 Time // Reset: new delay
}

type fireRec struct {
	id int
	at Time
}

// genOps derives a deterministic op sequence from seed. Deadline mixes are
// chosen to exercise every wheel path: same-µs bursts (level-0 FIFO),
// sub-window and cross-window delays (cascades), and multi-block far
// deadlines (overflow migration).
func genOps(seed uint64, n int) []schedOp {
	ops := make([]schedOp, 0, n)
	rng := seed
	next := func() uint64 { rng = benchLCG(rng); return rng >> 11 }
	for i := 0; i < n; i++ {
		switch r := next() % 100; {
		case r < 30: // After
			ops = append(ops, schedOp{kind: 0, arg: diffDelay(next)})
		case r < 40: // At (absolute; clamping to now is part of the contract)
			ops = append(ops, schedOp{kind: 1, arg: Time(next() % uint64(20*Second))})
		case r < 65: // Post
			ops = append(ops, schedOp{kind: 2, arg: diffDelay(next)})
		case r < 73: // Stop a previously created timer
			ops = append(ops, schedOp{kind: 3, arg: Time(next())})
		case r < 80: // Reset a previously created timer
			ops = append(ops, schedOp{kind: 7, arg: Time(next()), arg2: diffDelay(next)})
		case r < 90: // Step
			ops = append(ops, schedOp{kind: 4})
		case r < 98: // RunUntil(now + delta)
			ops = append(ops, schedOp{kind: 5, arg: Time(next() % uint64(2*Second))})
		default: // Run with a small event budget
			ops = append(ops, schedOp{kind: 6, arg: Time(next()%40 + 1)})
		}
	}
	return ops
}

// diffDelay picks a delay from a mix of ranges: same-instant, sub-window,
// in-block, and past the 2^32 µs block boundary (overflow). Occasionally
// negative, to pin the clamp.
func diffDelay(next func() uint64) Time {
	switch next() % 10 {
	case 0:
		return 0
	case 1:
		return -Time(next() % 1000) // clamped to "now"
	case 2, 3, 4:
		return Time(next() % 256) // inside the level-0 window
	case 5, 6:
		return Time(next() % uint64(Second)) // cascade territory
	case 7, 8:
		return Time(next() % uint64(100*Second)) // upper levels
	default:
		return Time(next() % uint64(Time(3)<<32)) // overflow blocks
	}
}

// applyOps replays one op sequence on s and returns the (id, time) fire
// trace. Every scheduled callback records; ids below the nested base also
// spawn a nested Post from inside their callback, exercising scheduling
// during the drain of the very slot being fired.
func applyOps(s *Scheduler, ops []schedOp) []fireRec {
	const nestedBase = 1 << 20
	var trace []fireRec
	timers := make(map[int]*Timer)
	nextID := 0
	var record func(id int) func()
	record = func(id int) func() {
		return func() {
			trace = append(trace, fireRec{id, s.Now()})
			if id < nestedBase && id%5 == 0 {
				s.Post(Time(id%97), record(nestedBase+id))
			}
		}
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			timers[nextID] = s.After(op.arg, record(nextID))
			nextID++
		case 1:
			timers[nextID] = s.At(op.arg, record(nextID))
			nextID++
		case 2:
			s.Post(op.arg, record(nextID))
			nextID++
		case 3:
			if nextID > 0 {
				if tm := timers[int(uint64(op.arg)%uint64(nextID))]; tm != nil {
					tm.Stop()
				}
			}
		case 4:
			s.Step()
		case 5:
			s.RunUntil(s.Now() + op.arg)
		case 6:
			s.Run(int64(op.arg))
		case 7:
			if nextID > 0 {
				if tm := timers[int(uint64(op.arg)%uint64(nextID))]; tm != nil {
					tm.Reset(op.arg2)
				}
			}
		}
	}
	s.Run(0) // drain everything that remains
	return trace
}

func TestWheelDifferentialRandomOps(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 0xDEADBEEF, 0xC0FFEE} {
		ops := genOps(seed, 4000)
		ref := applyOps(NewSchedulerWith(false), ops)
		got := applyOps(NewSchedulerWith(true), ops)
		if len(ref) != len(got) {
			t.Fatalf("seed %#x: heap fired %d events, wheel fired %d", seed, len(ref), len(got))
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("seed %#x: fire %d diverges: heap %+v, wheel %+v", seed, i, ref[i], got[i])
			}
		}
		if len(ref) == 0 {
			t.Fatalf("seed %#x: degenerate sequence fired nothing", seed)
		}
	}
}

// TestWheelBatchOrderMatchesHeap: same-deadline batches shaped the way the
// network produces them must fire in exactly the reference heap's order.
// Each batch is pushed in scheduling order — birth instants non-decreasing —
// with the order keys inside each birth-instant run reversed, as forwarders
// that transmit in arrival order leave them, and timer entries interleaved.
// One batch splices in an earlier birth instant after later ones (a shape
// the scheduler never builds), which takes the general sort, and one holds a
// 4 096-entry same-instant reversed run, past shortRun. Deadlines 1–10 ms out
// reach level 0 by cascade, like link deliveries, one level-1 slot holding
// two deadlines; stopped timers ride along.
func TestWheelBatchOrderMatchesHeap(t *testing.T) {
	w, h := newWheel(), &schedHeap{}
	var seq uint64
	push := func(at, bs Time, ord uint64) {
		ev := event{at: at, bs: bs, ord: ord}
		w.push(ev, 0)
		h.push(ev)
	}
	timer := func(at, bs Time) *Timer {
		seq++
		tm := &Timer{seq: seq}
		ev := event{at: at, bs: bs, ord: seq | localOrd, p: unsafe.Pointer(tm)}
		w.push(ev, 0)
		h.push(ev)
		return tm
	}
	// dead pushes a timer already stopped, counted as Stop would count it.
	dead := func(at, bs Time) {
		timer(at, bs).stopped = true
		w.ndead++
		h.nstopped++
	}
	// runs pushes one batch at deadline at: len(sizes) birth-instant runs
	// from bs0 on, each a reversed sequence of deliveries from distinct
	// senders with a timer after its first delivery.
	runs := func(at, bs0 Time, sizes ...int) {
		for r, n := range sizes {
			bs := bs0 + Time(r)
			for i := n; i > 0; i-- {
				push(at, bs, deliveryOrd(i, uint64(r+1)))
				if i == n {
					timer(at, bs)
				}
			}
		}
	}
	runs(1000, 0, 3, 1, 7, 2, 16, 17, 5)          // level-1 slot, one deadline
	runs(2000, 10, 4, 4)                          // shares its level-1 slot...
	runs(2001, 10, 2, 9)                          // ...with a second deadline
	dead(2000, 10)                                // dead entry riding a cascade
	runs(5000, 40, 6)                             // a spliced bs inversion:
	push(5000, 20, deliveryOrd(99, 1))            // born before the run above,
	runs(5000, 50, 3)                             // pushed before this one
	runs(10000, 0, 4096)                          // one long same-instant run,
	dead(10000, 0)                                // a dead entry inside it
	runs(9000, 0, shortRun, shortRun+1, shortRun) // both sides of shortRun

	matchHeap(t, w, h, -1)
}

// TestWheelChunkedSlotCompaction: slots spanning several chunks, with dead
// entries between live ones, keep the reference heap's fire order through
// compaction sweeps — of an upper-level slot before its cascade, and of a
// level-0 slot and the due buffer mid-drain.
func TestWheelChunkedSlotCompaction(t *testing.T) {
	w, h := newWheel(), &schedHeap{}
	var timers []*Timer
	for i := 0; i < 400; i++ { // one level-1 slot, two deadlines, 8 birth instants
		ev := event{at: Time(1024 + i%2), bs: Time(i / 50), ord: deliveryOrd(400-i, 1)}
		if i%3 == 0 {
			tm := &Timer{seq: uint64(i + 1)}
			timers = append(timers, tm)
			ev.ord, ev.p = tm.seq|localOrd, unsafe.Pointer(tm)
		}
		w.push(ev, 0)
		h.push(ev)
	}
	chunks := func(sl slot) (n int) {
		for c := sl.head; c != nil; c = c.next {
			n++
		}
		return n
	}
	// stop kills every other timer of tms, sweeps both stores, and appends
	// past a chunk boundary to the swept slot holding deadline 1025.
	stop := func(tms []*Timer, bs Time) {
		for k := 0; k < len(tms); k += 2 {
			tms[k].stopped = true
			w.ndead++
			h.nstopped++
		}
		w.compact()
		h.compact()
		for k := 0; k <= chunkLen; k++ {
			ev := event{at: 1025, bs: bs, ord: deliveryOrd(k, 2)}
			w.push(ev, 0)
			h.push(ev)
		}
	}
	if n := chunks(w.levels[1][4]); n < 3 {
		t.Fatalf("level-1 slot spans %d chunks, want >= 3", n)
	}
	stop(timers, 8)
	matchHeap(t, w, h, 10) // cascades, and moves 1024's batch into due
	if n := chunks(w.levels[0][1025&wheelMask]); n < 3 || len(w.due) == w.dueHead {
		t.Fatalf("mid-drain: level-0 slot spans %d chunks, due holds %d, want >= 3 and > 0", n, len(w.due)-w.dueHead)
	}
	stop(timers[1:], 9)
	matchHeap(t, w, h, -1)
}

// matchHeap pops n entries (all, when n < 0) from both stores in lockstep
// and fails on the first difference in fire order; a full drain must leave
// the wheel empty.
func matchHeap(t *testing.T, w *schedWheel, h *schedHeap, n int) {
	t.Helper()
	for i := 0; i != n; i++ {
		ev, ok := w.next(maxTime)
		ref, refOK := h.next(maxTime)
		if ok != refOK {
			t.Fatalf("fire %d: wheel has an entry: %v, heap: %v", i, ok, refOK)
		}
		if !ok {
			break
		}
		if ev.at != ref.at || ev.bs != ref.bs || ev.ord != ref.ord {
			t.Fatalf("fire %d: wheel (at %d, bs %d, ord %#x), heap (at %d, bs %d, ord %#x)",
				i, ev.at, ev.bs, ev.ord, ref.at, ref.bs, ref.ord)
		}
	}
	if n < 0 && (w.total != 0 || w.ndead != 0) {
		t.Fatalf("wheel drained with total %d, ndead %d", w.total, w.ndead)
	}
}

// refOrderBatch is the batch order restoration orderBatch replaced: a
// sortedness check over the whole batch, then one general (bs, ord) sort.
func refOrderBatch(batch []event) {
	for k := 1; k < len(batch); k++ {
		if batch[k].bs < batch[k-1].bs || (batch[k].bs == batch[k-1].bs && batch[k].ord < batch[k-1].ord) {
			slices.SortFunc(batch, func(a, b event) int {
				if a.bs != b.bs {
					return cmp.Compare(a.bs, b.bs)
				}
				return cmp.Compare(a.ord, b.ord)
			})
			return
		}
	}
}

// randomBatch draws a same-deadline batch of n entries in runs of 1 to
// maxRun entries: birth instants rise run to run (with probability inv one
// falls, the shape orderBatch's general sort covers), and order keys are
// distinct across the batch and shuffled inside a run.
func randomBatch(rng *rand.Rand, n, maxRun int, inv float64) []event {
	batch := make([]event, 0, n)
	bs := Time(0)
	for len(batch) < n {
		if rng.Float64() < inv {
			bs -= Time(1 + rng.Intn(3))
		} else {
			bs += Time(1 + rng.Intn(3))
		}
		base := len(batch) * maxRun
		for _, src := range rng.Perm(min(1+rng.Intn(maxRun), n-len(batch))) {
			batch = append(batch, event{at: 1000, bs: bs, ord: deliveryOrd(base+src, 1)})
		}
	}
	return batch
}

// TestOrderBatchMatchesSort: on random batches, with and without birth-
// instant inversions, orderBatch leaves exactly the general sort's order.
func TestOrderBatchMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 2000; i++ {
		batch := randomBatch(rng, 1+rng.Intn(200), 2*shortRun, []float64{0, 0.05}[i%2])
		want := slices.Clone(batch)
		refOrderBatch(want)
		orderBatch(batch)
		for k := range want {
			if batch[k].bs != want[k].bs || batch[k].ord != want[k].ord {
				t.Fatalf("batch %d entry %d: (bs %d, ord %#x), sort gives (bs %d, ord %#x)", i, k, batch[k].bs, batch[k].ord, want[k].bs, want[k].ord)
			}
		}
	}
}

// BenchmarkDenseBatchRuns and BenchmarkDenseBatchReference order the level-0
// batch fillDue hands over on dense-data: 29 deliveries in 6–8 birth-instant
// runs (6.9 on average there), order keys scrambled inside each.
func BenchmarkDenseBatchRuns(b *testing.B) { benchBatch(b, denseBatches(), orderBatch) }

func BenchmarkDenseBatchReference(b *testing.B) { benchBatch(b, denseBatches(), refOrderBatch) }

// BenchmarkRunSort prices sortRun's two ways of sorting birth-instant runs,
// insertRun and slices.SortFunc: on every run of the dense-data batches
// above, and on single shuffled and reversed runs either side of shortRun.
// Reversal is insertion sort's worst case and one SortFunc detects, so it
// sets the cutoff: on a 2-vCPU VM insertion wins at 16 on both shapes, ties
// reversed at 32 and loses from 64 on, while shuffled it still wins at 128.
func BenchmarkRunSort(b *testing.B) {
	sorts := []struct {
		name string
		fn   func([]event)
	}{{"insertion", insertRun}, {"SortFunc", func(r []event) { slices.SortFunc(r, byOrd) }}}
	names, cases := []string{"dense"}, [][][]event{denseBatches()}
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{shortRun, 2 * shortRun} {
		var shuffled, reversed [][]event
		for len(shuffled) < 64 {
			s, r := make([]event, n), make([]event, n)
			for i, src := range rng.Perm(n) {
				s[i] = event{at: 1000, ord: deliveryOrd(src+1, 1)}
				r[i] = event{at: 1000, ord: deliveryOrd(n-i, 1)}
			}
			shuffled, reversed = append(shuffled, s), append(reversed, r)
		}
		names = append(names, fmt.Sprintf("shuffled%d", n), fmt.Sprintf("reversed%d", n))
		cases = append(cases, shuffled, reversed)
	}
	for c, batches := range cases {
		for _, s := range sorts {
			b.Run(names[c]+"/"+s.name, func(b *testing.B) {
				benchBatch(b, batches, func(bt []event) {
					for lo := 0; lo < len(bt); {
						hi := lo + 1
						for hi < len(bt) && bt[hi].bs == bt[lo].bs {
							hi++
						}
						s.fn(bt[lo:hi])
						lo = hi
					}
				})
			})
		}
	}
}

// denseBatches draws 64 batches of 29 deliveries in 6–8 birth-instant runs.
func denseBatches() [][]event {
	rng := rand.New(rand.NewSource(27))
	var batches [][]event
	for len(batches) < 64 {
		bt := randomBatch(rng, 29, 7, 0)
		if runs := 1 + countRuns(bt); runs >= 6 && runs <= 8 {
			batches = append(batches, bt)
		}
	}
	return batches
}

func benchBatch(b *testing.B, batches [][]event, order func([]event)) {
	scratch := make([]event, len(batches[0]))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, batches[i%len(batches)])
		order(scratch)
	}
}

// countRuns counts the birth-instant changes along a batch.
func countRuns(batch []event) int {
	n := 0
	for k := 1; k < len(batch); k++ {
		if batch[k].bs != batch[k-1].bs {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Targeted wheel unit tests.
// ---------------------------------------------------------------------------

// TestWheelOverflowOrder: deadlines past the wheels' 2^32 µs span park in
// the overflow heap and migrate block-by-block, preserving (time, seq) order
// across block boundaries and within a same-instant burst.
func TestWheelOverflowOrder(t *testing.T) {
	s := NewSchedulerWith(true)
	var order []int
	add := func(id int, at Time) { s.At(at, func() { order = append(order, id) }) }
	far := Time(5) << 32 // five blocks out
	add(0, far)          // same instant, insertion order 0,1,2
	add(1, far)
	add(2, far)
	add(3, Time(2)<<32+7) // middle block
	add(4, 50)            // in the current block
	add(5, far+Second)    // after the burst
	s.Run(0)
	want := []int{4, 3, 0, 1, 2, 5}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if s.Pending() != 0 || s.LiveTimers() != 0 {
		t.Fatalf("Pending=%d Live=%d after drain, want 0/0", s.Pending(), s.LiveTimers())
	}
}

// TestWheelRunUntilThenEarlierInsert: a bounded RunUntil must not advance
// the cursor past its deadline; an event scheduled afterwards, earlier than
// the parked one, still fires first. (This is the cursor-invariant trap a
// peek-style implementation falls into.)
func TestWheelRunUntilThenEarlierInsert(t *testing.T) {
	s := NewSchedulerWith(true)
	var order []int
	s.At(600*Second, func() { order = append(order, 600) })
	s.RunUntil(550 * Second)
	if len(order) != 0 {
		t.Fatalf("event fired early: %v", order)
	}
	s.At(560*Second, func() { order = append(order, 560) })
	s.After(Millisecond, func() { order = append(order, 550) }) // now+1ms
	s.Run(0)
	want := []int{550, 560, 600}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestWheelCrossWindowFIFO: two events at the same absolute deadline, one
// scheduled while the deadline was several levels upstairs and one scheduled
// just before it fires, preserve global insertion order.
func TestWheelCrossWindowFIFO(t *testing.T) {
	s := NewSchedulerWith(true)
	deadline := 300*Second + 41*Microsecond
	var order []int
	s.At(deadline, func() { order = append(order, 0) }) // far away: upper level
	s.RunUntil(300 * Second)                            // cursor now close to the deadline
	s.At(deadline, func() { order = append(order, 1) }) // near: lands low
	s.At(deadline-1, func() { order = append(order, 2) })
	s.Run(0)
	want := []int{2, 0, 1}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestWheelStopReclaim: Stop is lazy on the wheel — individual entries
// linger until the cursor, a cascade, or the dead-majority compaction sweep
// touches them — but they must never fire, and once dead entries outnumber
// live ones the sweep reclaims them all at once.
func TestWheelStopReclaim(t *testing.T) {
	s := NewSchedulerWith(true)
	const n = 1000
	timers := make([]*Timer, n)
	for i := range timers {
		timers[i] = s.After(Second+Time(i)*Millisecond, func() { t.Error("stopped timer fired") })
	}
	// Stopping exactly half leaves the dead entries parked: no sweep yet
	// (the sweep needs a strict dead majority).
	for _, tm := range timers[:n/2] {
		tm.Stop()
	}
	if p := s.Pending(); p != n {
		t.Errorf("Pending = %d with dead entries not yet a majority, want %d (lazy cancel leaves entries queued)", p, n)
	}
	// One more Stop tips the dead entries into the majority and triggers the
	// compaction sweep, which reclaims every dead entry in one pass.
	timers[n/2].Stop()
	if p := s.Pending(); p != n/2-1 {
		t.Errorf("Pending = %d after dead-majority sweep, want %d", p, n/2-1)
	}
	for _, tm := range timers[n/2+1:] {
		tm.Stop()
	}
	if l := s.LiveTimers(); l != 0 {
		t.Errorf("LiveTimers = %d after stopping all, want 0", l)
	}
	s.RunUntil(3 * Second)
	if p := s.Pending(); p != 0 {
		t.Errorf("Pending = %d after the deadlines passed, want 0 (slots reclaimed)", p)
	}
}

// TestLiveTimerAccounting: the live/peak gauges are identical across
// backing stores (the scaling ledger DeepEquals them) and track schedule,
// cancel, and fire.
func TestLiveTimerAccounting(t *testing.T) {
	for _, wheel := range []bool{false, true} {
		s := NewSchedulerWith(wheel)
		timers := make([]*Timer, 10)
		for i := range timers {
			timers[i] = s.After(Time(i+1)*Millisecond, func() {})
		}
		s.Post(5*Millisecond, func() {})
		if got := s.LiveTimers(); got != 11 {
			t.Errorf("wheel=%v: LiveTimers = %d, want 11", wheel, got)
		}
		for _, tm := range timers[:3] {
			tm.Stop()
		}
		if got := s.LiveTimers(); got != 8 {
			t.Errorf("wheel=%v: LiveTimers = %d after 3 stops, want 8", wheel, got)
		}
		s.Run(0)
		if got := s.LiveTimers(); got != 0 {
			t.Errorf("wheel=%v: LiveTimers = %d after drain, want 0", wheel, got)
		}
		if got := s.PeakLiveTimers(); got != 11 {
			t.Errorf("wheel=%v: PeakLiveTimers = %d, want 11", wheel, got)
		}
	}
}

// TestTimerReset: Reset re-arms without allocating a new handle — the old
// entry never fires, the new deadline and FIFO position follow the re-arm,
// and Reset on a fired or stopped timer refuses and leaves it untouched.
func TestTimerReset(t *testing.T) {
	for _, wheel := range []bool{false, true} {
		s := NewSchedulerWith(wheel)
		var order []int
		tm := s.After(10, func() { order = append(order, 0) })
		s.Post(50, func() { order = append(order, 1) })
		if !tm.Reset(100) {
			t.Fatalf("wheel=%v: Reset on an active timer refused", wheel)
		}
		s.RunUntil(60)
		if len(order) != 1 || order[0] != 1 {
			t.Fatalf("wheel=%v: old arm fired or order wrong: %v", wheel, order)
		}
		if tm.When() != 100 || !tm.Active() {
			t.Fatalf("wheel=%v: When=%d Active=%v after Reset, want 100/true", wheel, tm.When(), tm.Active())
		}
		// Same-deadline FIFO follows the re-arm, not the original schedule.
		s.Post(40, func() { order = append(order, 2) }) // also at t=100
		if !tm.Reset(40) {
			t.Fatalf("wheel=%v: second Reset refused", wheel)
		}
		s.Run(0)
		want := []int{1, 2, 0}
		for i := range want {
			if i >= len(order) || order[i] != want[i] {
				t.Fatalf("wheel=%v: order = %v, want %v", wheel, order, want)
			}
		}
		if tm.Reset(5) {
			t.Errorf("wheel=%v: Reset on a fired timer re-armed it", wheel)
		}
		stopped := s.After(10, func() { t.Error("stopped timer fired") })
		stopped.Stop()
		if stopped.Reset(5) {
			t.Errorf("wheel=%v: Reset on a stopped timer re-armed it", wheel)
		}
		if s.LiveTimers() != 0 {
			t.Errorf("wheel=%v: LiveTimers = %d after drain, want 0", wheel, s.LiveTimers())
		}
		s.Run(0)
	}
}

// ---------------------------------------------------------------------------
// GC-visibility regression: a retained Timer handle must not pin the
// Scheduler once the timer can no longer fire (ISSUE 5 satellite — Stop
// used to leave t.s set).
// ---------------------------------------------------------------------------

func TestStopUnpinsScheduler(t *testing.T) {
	for _, wheel := range []bool{false, true} {
		collected := make(chan struct{})
		tm := func() *Timer {
			s := NewSchedulerWith(wheel)
			runtime.SetFinalizer(s, func(*Scheduler) { close(collected) })
			tm := s.After(Second, benchNop)
			tm.Stop()
			return tm
		}()
		if tm.s != nil {
			t.Fatalf("wheel=%v: Stop left the scheduler back-pointer set", wheel)
		}
		ok := false
		for i := 0; i < 100 && !ok; i++ {
			runtime.GC()
			select {
			case <-collected:
				ok = true
			default:
			}
		}
		if !ok {
			t.Errorf("wheel=%v: scheduler not collected while a stopped Timer handle is retained", wheel)
		}
		runtime.KeepAlive(tm)
	}
}

// TestFireUnpinsScheduler: same property for a handle whose timer fired.
func TestFireUnpinsScheduler(t *testing.T) {
	s := NewScheduler()
	tm := s.After(Millisecond, benchNop)
	s.Run(0)
	if tm.s != nil || tm.fn != nil {
		t.Error("fired timer still references the scheduler or its callback")
	}
	if tm.Stop() {
		t.Error("Stop on a fired timer reported cancellation")
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks (ISSUE 5 satellite): cancel-heavy and fire-heavy mixes,
// heap vs wheel, on a 64k parked-timer background. cmd/pimbench -scaling
// replays the same workloads into BENCH_scale.json.
// ---------------------------------------------------------------------------

func BenchmarkSchedulerChurn(b *testing.B) {
	for _, impl := range []struct {
		name  string
		wheel bool
	}{{"Heap", false}, {"Wheel", true}} {
		b.Run(impl.name, func(b *testing.B) {
			s := PrepSchedulerBench(impl.wheel)
			b.ReportAllocs()
			b.ResetTimer()
			SchedulerChurn(s, b.N)
		})
	}
}

func BenchmarkSchedulerDense(b *testing.B) {
	for _, impl := range []struct {
		name  string
		wheel bool
	}{{"Heap", false}, {"Wheel", true}} {
		b.Run(impl.name, func(b *testing.B) {
			s := PrepSchedulerBench(impl.wheel)
			b.ReportAllocs()
			b.ResetTimer()
			SchedulerDense(s, b.N)
		})
	}
}
