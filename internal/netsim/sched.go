// Package netsim is the discrete-event network simulator substrate: a
// deterministic event scheduler plus a packet-level network model of nodes,
// interfaces, point-to-point links, and multi-access LANs with per-link
// delays and failure injection.
//
// The paper's protocols ran on real routers and the MBONE; here the same
// router logic, byte-encoded wire messages, and soft-state timers execute
// against this simulator (DESIGN.md §4 records the substitution). Every
// packet crossing a link is marshalled to bytes and unmarshalled at the
// receiver, so the codecs are exercised on the true data path.
package netsim

import "unsafe"

// Time is simulated time in microseconds since the start of the run.
type Time int64

// Convenient units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000000
)

// maxTime is the "no deadline" sentinel used by Step.
const maxTime = Time(1<<63 - 1)

// Seconds renders t as floating-point seconds (for reports).
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Timer is a handle to a scheduled callback. The zero value is not valid;
// timers are created by Scheduler.After/At.
//
// Timer objects are deliberately never pooled: a protocol may keep a handle
// long after the callback fired (Stop on a fired timer must keep returning
// false), so recycling a live pointer would let a stale Stop cancel an
// unrelated future event. Scheduler.Post returns no handle, so its callback
// rides in a record from a free list private to the scheduler instead, one
// that no caller can ever hold.
//
// The callback lives on the handle, not in the queue entry, so Stop can
// release it in place; and the scheduler back-pointer is cleared the moment
// the timer can no longer fire, so a long-retained handle never pins a dead
// Scheduler (and its pooled events) in memory.
type Timer struct {
	s  *Scheduler
	at Time
	fn func()
	// seq identifies the timer's current queue entry. Reset re-arms the
	// handle by bumping seq and enqueueing a fresh entry; the old entry is
	// recognized as stale (entry.seq != timer.seq) and reclaimed wherever
	// the queue next touches it, exactly like a stopped one.
	seq     uint64
	stopped bool
	fired   bool
	// post marks a Post record: recycled as soon as it fires.
	post bool
}

// Stop cancels the timer. It reports whether the cancellation prevented the
// callback (false if the timer already fired or was already stopped).
//
// On the timing wheel this is the O(1) lazy cancel: the entry is marked dead
// in place (the callback is released immediately) and its queue slot is
// normally reclaimed when a cascade or the firing cursor next passes it. On
// the reference heap, stopped entries stay queued until their deadline or
// until a compaction sweep reclaims them. Both queues share the same
// dead-majority rule (swept once dead entries outnumber live ones): without
// it, soft-state protocols that Stop/Reset long-deadline expiry timers on
// every refresh park dead entries in far-future slots for the full original
// lifetime, and the parked majority turns slot growth and cascades into the
// dominant cost (observed as a >2x slowdown at 1000-router scale).
func (t *Timer) Stop() bool {
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	t.fn = nil
	if s := t.s; s != nil {
		t.s = nil
		s.live--
		s.reapDead()
	}
	return true
}

// Reset re-arms an active timer to fire d from now with the same callback,
// without allocating: the handle is reused and its superseded queue entry
// is reclaimed lazily, like a stopped one. This is the soft-state refresh
// primitive — every received Join/Prune/Report re-arms an expiry timer —
// and at scale it is the scheduler's hottest cancelling operation. It
// reports whether the re-arm happened; false means the timer already fired
// or was stopped (re-create it with After), leaving the timer untouched.
func (t *Timer) Reset(d Time) bool {
	s := t.s
	if s == nil || t.fired || t.stopped {
		return false
	}
	if d < 0 {
		d = 0
	}
	// The current entry goes stale: mirror Stop's bookkeeping, then hand
	// the accounting straight back via enqueue for the replacement.
	s.live--
	s.reapDead()
	t.at = s.now + d
	seq := s.nextSeq()
	t.seq = seq
	s.enqueue(event{at: t.at, bs: s.now, ord: seq | localOrd, p: unsafe.Pointer(t)})
	return true
}

// reapDead records one newly dead (stopped or superseded) queue entry and
// triggers the owning queue's compaction sweep once dead entries outnumber
// live ones — the same amortized-O(1) policy for both implementations, so
// neither can be starved into quadratic slot/heap growth by cancel-heavy
// soft-state workloads.
func (s *Scheduler) reapDead() {
	if s.heap != nil {
		s.heap.nstopped++
		if s.heap.nstopped*2 > len(s.heap.events) {
			s.heap.compact()
		}
	} else if s.wheel != nil {
		s.wheel.ndead++
		if s.wheel.ndead*2 > s.wheel.total {
			s.wheel.compact()
		}
	}
}

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool { return !t.fired && !t.stopped }

// When returns the time the timer is (or was) scheduled to fire.
func (t *Timer) When() Time { return t.at }

// localOrd is the high bit of an event's order key. Timer and Post events
// carry their scheduler's sequence number with this bit set; packet-delivery
// events carry deliveryOrd with the bit clear. At an equal (deadline, birth
// instant), deliveries therefore fire before locally scheduled callbacks,
// and among themselves in (source node, transmit sequence) order: one
// canonical order, fixed by the simulation alone, that every golden digest
// hashes.
const localOrd = uint64(1) << 63

// nodeIDBits is the width of the node ID in deliveryOrd. Bit 63 — localOrd,
// which tells fire and dead to read an entry's pointer as a *Timer — stays
// clear only while every ID fits, so Network.AddNode refuses node maxNodes.
const (
	nodeIDBits = 23
	maxNodes   = 1 << nodeIDBits
)

// deliveryOrd is the structural order key of a packet-delivery event: the
// sending node's ID over its per-node transmit sequence. 23 bits of node ID
// and 40 bits of sequence keep bit 63 clear (8M nodes, 10^12 sends per node).
func deliveryOrd(src int, xmit uint64) uint64 {
	const xmitBits = 63 - nodeIDBits
	return uint64(src)<<xmitBits | (xmit & (1<<xmitBits - 1))
}

// checkNodeID panics on a node ID deliveryOrd cannot encode.
func checkNodeID(id int) {
	if id >= maxNodes {
		panic("netsim: a network holds at most 2^23 nodes")
	}
}

// event is one queue entry: 32 bytes, so that a flood's tens of thousands of
// crossings in flight cost little wheel. Its kind is the localOrd bit of ord:
// clear, p is the in-flight *frame, which fire dispatches without a closure
// and recycles; set, p is the *Timer whose callback it runs — an At/After
// handle (the callback lives there so Stop can release it) or a Post record.
type event struct {
	at Time
	// bs is the birth instant: the scheduler clock when the entry was
	// created. For timer and Post events it is redundant with the order key
	// (seq is monotone in time); for a delivery it sequences the arrival by
	// when it was sent, ahead of the sender's ID.
	bs Time
	// ord breaks (at, bs) ties: local sequence number | localOrd for timer
	// and Post events, or the structural deliveryOrd key for packet
	// deliveries.
	ord uint64
	p   unsafe.Pointer
}

// before orders events by (deadline, birth instant, order key): a strict
// total order computed from the simulation alone, never from the backing
// store, so the wheel and the reference heap fire the same sequence and the
// golden digests hash one canonical stream. At an equal (deadline, birth
// instant), deliveries (localOrd clear) precede locally scheduled callbacks,
// which fire in scheduling order.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.bs != o.bs {
		return e.bs < o.bs
	}
	return e.ord < o.ord
}

// timer returns the entry's *Timer, or nil for a frame delivery.
func (e event) timer() *Timer {
	if e.ord&localOrd == 0 {
		return nil
	}
	return (*Timer)(e.p)
}

// dead reports whether the entry belongs to a stopped timer, or is a stale
// arm superseded by Reset, and can be dropped wherever it is encountered.
// Timer entries always carry the scheduler sequence number in ord's low
// bits, so the staleness check masks localOrd off.
func (e event) dead() bool {
	tm := e.timer()
	return tm != nil && (tm.stopped || tm.seq != e.ord&^localOrd)
}

// Scheduler is a deterministic discrete-event scheduler. Events scheduled
// for the same instant fire in scheduling order.
//
// The queue is the hierarchical timing wheel (schedWheel — O(1) insert and
// lazy cancel). A binary heap (schedHeap) is kept as the reference
// implementation, reachable only through NewSchedulerWith(false): the
// differential tests in wheel_test.go hold the wheel's fire order
// bit-identical to it.
type Scheduler struct {
	now   Time
	seq   uint64
	heap  *schedHeap
	wheel *schedWheel
	// live counts pending not-yet-stopped entries; peakLive is its high-water
	// mark — the "timer pressure" gauge the scaling benchmark records.
	live, peakLive int
	// frames is the scheduler's transmit-frame free list (pool.go).
	frames framePool
	// rx is the header scratch every frame this scheduler fires decodes
	// into (pool.go).
	rx rxScratch
	// timerChunk bump-allocates Timer handles 64 at a time. Every soft-state
	// refresh allocates a handle, so at scale the per-handle GC overhead is
	// a measurable share of scheduling cost; batching cuts it 64x. Slots are
	// handed out exactly once — this is NOT pooling, so the stale-Stop
	// hazard documented on Timer does not apply. (Corner: a retained handle
	// keeps its 64-slot chunk alive, so siblings' back-pointers can pin a
	// dropped Scheduler that still had entries pending in those siblings;
	// handles of fired/stopped timers alone never pin it.)
	timerChunk []Timer
	// posts is the free list of fired Post records (Timer.post set). They
	// come from timerChunk like handles, but no caller ever sees one, so
	// reusing them is safe where reusing a handle is not.
	posts []*Timer
	// halted stops the run loops before the next event fires (Halt). The
	// flag is sticky until ClearHalt so nested/subsequent RunUntil calls
	// return immediately with the clock frozen at the halt instant.
	halted bool
	// Processed counts events executed, for run-length guards and stats.
	Processed int64
}

// NewScheduler returns a scheduler positioned at time 0, backed by the
// timing wheel.
func NewScheduler() *Scheduler { return NewSchedulerWith(true) }

// NewSchedulerWith returns a scheduler with an explicit backing store:
// wheel=true for the timing wheel, false for the reference binary heap.
// Only the scheduler differential tests and microbenchmarks pass false;
// every simulation goes through NewScheduler.
func NewSchedulerWith(wheel bool) *Scheduler {
	if wheel {
		return &Scheduler{wheel: newWheel()}
	}
	return &Scheduler{heap: &schedHeap{}}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// nextSeq returns the next scheduling sequence number: the order key of
// timer and Post events, monotone in scheduling order. Deliveries carry the
// structural deliveryOrd key instead, so the order among same-instant
// arrivals follows their senders, not which handler happened to run first.
func (s *Scheduler) nextSeq() uint64 {
	s.seq++
	return s.seq
}

// Pending returns the number of events still queued (including stopped
// timers not yet reaped).
func (s *Scheduler) Pending() int {
	if s.wheel != nil {
		return s.wheel.total
	}
	return len(s.heap.events)
}

// LiveTimers returns the number of pending events that can still fire
// (stopped-but-unreaped entries excluded).
func (s *Scheduler) LiveTimers() int { return s.live }

// PeakLiveTimers returns the high-water mark of LiveTimers over the run.
func (s *Scheduler) PeakLiveTimers() int { return s.peakLive }

// After schedules fn to run d from now. Negative delays run "immediately"
// (at the current time, after already-queued same-time events).
func (s *Scheduler) After(d Time, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// At schedules fn at absolute time t (clamped to now).
func (s *Scheduler) At(t Time, fn func()) *Timer {
	if t < s.now {
		t = s.now
	}
	tm := s.newTimer()
	seq := s.nextSeq()
	tm.s, tm.at, tm.fn, tm.seq = s, t, fn, seq
	s.enqueue(event{at: t, bs: s.now, ord: seq | localOrd, p: unsafe.Pointer(tm)})
	return tm
}

func (s *Scheduler) newTimer() *Timer {
	if len(s.timerChunk) == 0 {
		s.timerChunk = make([]Timer, 64)
	}
	tm := &s.timerChunk[0]
	s.timerChunk = s.timerChunk[1:]
	return tm
}

// Post schedules fn to run d from now (clamped like After) without
// allocating a cancellable Timer handle. This is the fast path for
// fire-and-forget work — periodic experiment pumps — and costs no per-event
// allocation once warm: the callback rides in a recycled Post record.
func (s *Scheduler) Post(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	var tm *Timer
	if k := len(s.posts); k > 0 {
		tm = s.posts[k-1]
		s.posts = s.posts[:k-1]
	} else {
		tm = s.newTimer()
		tm.post = true
	}
	seq := s.nextSeq()
	tm.at, tm.fn, tm.seq = s.now+d, fn, seq
	s.enqueue(event{at: tm.at, bs: s.now, ord: seq | localOrd, p: unsafe.Pointer(tm)})
}

// enqueueDelivery inserts a packet-delivery event carrying the structural
// deliveryOrd key (localOrd clear), so same-instant deliveries fire in
// (source, transmit sequence) order. The event record carries the pooled
// frame by pointer (no closure) and fire dispatches it directly. On the
// timing wheel a batch holding such an event has its order restored at fire
// time (orderBatch), since structural keys need not match append order.
func (s *Scheduler) enqueueDelivery(at, bs Time, ord uint64, f *frame) {
	s.live++
	if s.live > s.peakLive {
		s.peakLive = s.live
	}
	ev := event{at: at, bs: bs, ord: ord, p: unsafe.Pointer(f)}
	if s.wheel != nil {
		s.wheel.push(ev, s.now)
	} else {
		s.heap.push(ev)
	}
}

func (s *Scheduler) enqueue(ev event) {
	s.live++
	if s.live > s.peakLive {
		s.peakLive = s.live
	}
	if s.wheel != nil {
		s.wheel.push(ev, s.now)
	} else {
		s.heap.push(ev)
	}
}

// next removes and returns the earliest live event with at <= limit.
// Dead (stopped) entries encountered on the way are reclaimed.
func (s *Scheduler) next(limit Time) (event, bool) {
	if s.wheel != nil {
		return s.wheel.next(limit)
	}
	return s.heap.next(limit)
}

// fire executes one popped event: the clock advances to its deadline, the
// handle is marked fired and unpinned (a Post record is recycled instead),
// and the callback runs.
func (s *Scheduler) fire(ev event) {
	s.now = ev.at
	s.Processed++
	s.live--
	tm := ev.timer()
	if tm == nil {
		f := (*frame)(ev.p)
		// Pooled frame delivery: fan out synchronously, then the frame —
		// and everything borrowed from it — is dead and recycled.
		f.from.Node.Net.deliverFrame(f, &s.rx)
		if poisonOn.Load() {
			s.rx = rxScratch{}
		}
		s.frames.put(f)
		return
	}
	fn := tm.fn
	tm.fn = nil
	if tm.post {
		s.posts = append(s.posts, tm)
	} else {
		tm.fired = true
		tm.s = nil
	}
	fn()
}

// Step executes the next event. It reports false when the queue is empty.
func (s *Scheduler) Step() bool {
	ev, ok := s.next(maxTime)
	if !ok {
		return false
	}
	s.fire(ev)
	return true
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled by executed events are included.
func (s *Scheduler) RunUntil(deadline Time) {
	for !s.halted {
		ev, ok := s.next(deadline)
		if !ok {
			break
		}
		s.fire(ev)
	}
	// A halted run leaves the clock frozen at the instant of the halt —
	// the violation time is part of the deterministic outcome — instead of
	// advancing it to the deadline.
	if !s.halted && s.now < deadline {
		s.now = deadline
	}
}

// Run executes events until the queue drains or maxEvents is reached
// (maxEvents <= 0 means no limit). It returns the number of events executed.
func (s *Scheduler) Run(maxEvents int64) int64 {
	var n int64
	for !s.halted && s.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}

// Halt makes every run loop (RunUntil and Run) return before firing another
// event, leaving the clock at the current instant. The event that called Halt
// completes normally. The flag is sticky — later RunUntil calls return
// immediately — until ClearHalt.
//
// This is the fail-fast hook of the online invariant checker: the first
// violation stops the simulation at its exact simulated time, so fault-
// schedule search pays for one violation, not the full run.
func (s *Scheduler) Halt() { s.halted = true }

// Halted reports whether Halt stopped the scheduler.
func (s *Scheduler) Halted() bool { return s.halted }

// ClearHalt re-arms a halted scheduler so run loops make progress again.
func (s *Scheduler) ClearHalt() { s.halted = false }

// schedHeap is the reference queue: a binary heap ordered by (at, seq) with
// stopped-timer compaction, kept (behind NewSchedulerWith(false)) so the
// wheel's fire order can be differentially verified against it.
type schedHeap struct {
	events   []event
	nstopped int // stopped timers still occupying heap slots
}

func (h *schedHeap) push(ev event) {
	h.events = append(h.events, ev)
	siftUp(h.events)
}

// next pops the earliest live event with at <= limit, reaping stopped
// entries that surface at the top of the heap.
func (h *schedHeap) next(limit Time) (event, bool) {
	for len(h.events) > 0 {
		top := h.events[0]
		if top.dead() {
			h.pop()
			h.nstopped--
			continue
		}
		if top.at > limit {
			return event{}, false
		}
		return h.pop(), true
	}
	return event{}, false
}

func (h *schedHeap) pop() event {
	ev := eventHeapPop(&h.events)
	return ev
}

// compact removes every stopped entry from the heap in one sweep and
// restores the heap property. Ordering is untouched: (at, seq) is a total
// order, so re-heapifying the surviving events cannot change the pop
// sequence.
func (h *schedHeap) compact() {
	live := h.events[:0]
	for _, ev := range h.events {
		if ev.dead() {
			continue
		}
		live = append(live, ev)
	}
	// Zero the tail so dropped closures and timers are collectable.
	for i := len(live); i < len(h.events); i++ {
		h.events[i] = event{}
	}
	h.events = live
	h.nstopped = 0
	for i := len(h.events)/2 - 1; i >= 0; i-- {
		siftDown(h.events, i)
	}
}

// The sift helpers are shared by schedHeap and the wheel's overflow heap.

func siftUp(h []event) {
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func siftDown(h []event, i int) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].before(h[j1]) {
			j = j2
		}
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func eventHeapPop(hp *[]event) event {
	h := *hp
	n := len(h) - 1
	ev := h[0]
	h[0] = h[n]
	h[n] = event{} // release the closure for GC
	*hp = h[:n]
	siftDown(*hp, 0)
	return ev
}
