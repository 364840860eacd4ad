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
// unrelated future event. The allocation-free path is Scheduler.Post, which
// schedules straight into the pooled event store with no handle at all —
// that is what the packet-delivery hot path uses.
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
	s.enqueue(event{at: t.at, bs: s.now, ord: seq | localOrd, tm: t})
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
// and among themselves in (source node, transmit sequence) order — a rule
// both the sequential and the sharded execution paths compute identically,
// which is what makes shard count unobservable in results.
const localOrd = uint64(1) << 63

// deliveryOrd is the structural order key of a packet-delivery event: the
// sending node's ID over its per-node transmit sequence. 23 bits of node ID
// and 40 bits of sequence keep bit 63 clear for any realistic simulation
// (8M nodes, 10^12 sends per node).
func deliveryOrd(src int, xmit uint64) uint64 {
	return uint64(src)<<40 | (xmit & (1<<40 - 1))
}

// event is one queue entry. Entries are values in reusable backing arrays —
// scheduling does not allocate beyond amortized slice growth. fn is set for
// the fire-and-forget Post path; for After/At the callback lives on the
// Timer handle (so Stop can release it) and tm points at that handle.
type event struct {
	at Time
	// bs is the birth instant: the scheduler clock when the entry was
	// created. For locally scheduled events it is redundant with the order
	// key (seq is monotone in time), but it is the piece of the ordering
	// that survives a shard boundary — a cross-shard arrival is sequenced
	// against local events by when it was sent, not when it was merged.
	bs Time
	// ord breaks (at, bs) ties: local sequence number | localOrd for timer
	// and Post events, or the structural deliveryOrd key for packet
	// deliveries (local and cross-shard alike).
	ord uint64
	fn  func()
	tm  *Timer
	// fr, when non-nil, makes this a frame-delivery event: fire dispatches
	// the frame without a closure and recycles it afterwards.
	fr *frame
}

// before orders events by (deadline, birth instant, order key): a strict
// total order computed from values that do not depend on shard count or
// backing store, so the execution sequence is identical on the sequential
// and sharded paths — the determinism the differential gates assert on. At
// an equal (deadline, birth instant), deliveries (localOrd clear) precede
// locally scheduled callbacks, which fire in scheduling order.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.bs != o.bs {
		return e.bs < o.bs
	}
	return e.ord < o.ord
}

// dead reports whether the entry belongs to a stopped timer, or is a stale
// arm superseded by Reset, and can be dropped wherever it is encountered.
// Timer entries always carry the scheduler sequence number in ord's low
// bits, so the staleness check masks localOrd off.
func (e event) dead() bool { return e.tm != nil && (e.tm.stopped || e.tm.seq != e.ord&^localOrd) }

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
	// set is non-nil on the root scheduler of a sharded Network; RunUntil
	// then delegates to the conservative-lookahead epoch loop.
	set *shardSet
	// live counts pending not-yet-stopped entries; peakLive is its high-water
	// mark — the "timer pressure" gauge the scaling benchmark records.
	live, peakLive int
	// frames is the scheduler's transmit-frame free list (pool.go). Frames
	// always return to the pool of the scheduler that fired their delivery
	// event, so the list stays single-goroutine without locks.
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

// nextSeq returns the next scheduling sequence number. Sequence numbers are
// scheduler-private: two schedulers of a sharded network never need their
// seq values compared, because the only events that cross a shard boundary
// are deliveries, which carry the structural deliveryOrd key instead.
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
	if len(s.timerChunk) == 0 {
		s.timerChunk = make([]Timer, 64)
	}
	tm := &s.timerChunk[0]
	s.timerChunk = s.timerChunk[1:]
	seq := s.nextSeq()
	tm.s, tm.at, tm.fn, tm.seq = s, t, fn, seq
	s.enqueue(event{at: t, bs: s.now, ord: seq | localOrd, tm: tm})
	return tm
}

// Post schedules fn to run d from now (clamped like After) without
// allocating a cancellable Timer handle. This is the fast path for
// fire-and-forget work — packet deliveries, periodic experiment pumps — and
// costs no per-event allocation: the event record lives in the store's
// reusable backing arrays.
func (s *Scheduler) Post(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.enqueue(event{at: s.now + d, bs: s.now, ord: s.nextSeq() | localOrd, fn: fn})
}

// enqueueDelivery inserts a packet-delivery event carrying the structural
// deliveryOrd key (localOrd clear). Both execution paths use it — Node.Send
// locally, shardSet.exchange for merged cross-shard arrivals — so same-
// instant deliveries fire in (source, transmit sequence) order everywhere.
// The event record carries the pooled frame by pointer (no closure) and
// fire dispatches it directly. On the timing wheel a batch holding such an
// event has its order restored at fire time (orderBatch), since structural
// keys need not match append order.
func (s *Scheduler) enqueueDelivery(at, bs Time, ord uint64, f *frame) {
	s.live++
	if s.live > s.peakLive {
		s.peakLive = s.live
	}
	ev := event{at: at, bs: bs, ord: ord, fr: f}
	if s.wheel != nil {
		s.wheel.push(ev, s.now)
	} else {
		s.heap.push(ev)
	}
}

// advanceTo moves the clock forward to t without executing anything; the
// sharded epoch loop uses it to align quiesced shards on a barrier instant.
func (s *Scheduler) advanceTo(t Time) {
	if s.now < t {
		s.now = t
	}
}

// peekTime returns a lower bound on the earliest live deadline, and whether
// any live entry exists. On the heap (and for level-0/overflow wheel
// entries) the bound is exact; for events parked in upper wheel levels it is
// the slot base, which is never later than the true deadline — and a next()
// call at that bound cascades the slot, so repeated peeks converge. Dead
// entries surfacing at the front are reclaimed.
func (s *Scheduler) peekTime() (Time, bool) {
	if s.wheel != nil {
		return s.wheel.peek()
	}
	return s.heap.peek()
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
// handle (if any) is marked fired and unpinned, and the callback runs.
func (s *Scheduler) fire(ev event) {
	s.now = ev.at
	s.Processed++
	s.live--
	if f := ev.fr; f != nil {
		// Pooled frame delivery: fan out synchronously, then the frame —
		// and everything borrowed from it — is dead and recycled.
		f.link.Net.deliverFrame(f, &s.rx)
		if poisonOn.Load() {
			s.rx = rxScratch{}
		}
		s.frames.put(f)
		return
	}
	fn := ev.fn
	if tm := ev.tm; tm != nil {
		tm.fired = true
		fn = tm.fn
		tm.fn = nil
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
// On the root scheduler of a sharded Network this drives the conservative-
// lookahead epoch loop instead (see shards.go); shard-local schedulers and
// unsharded networks take the sequential path.
func (s *Scheduler) RunUntil(deadline Time) {
	if s.set != nil {
		s.set.run(deadline)
		return
	}
	s.runUntil(deadline)
}

func (s *Scheduler) runUntil(deadline Time) {
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

// Halt makes every run loop (RunUntil, Run, and the sharded epoch loop)
// return before firing another event, leaving the clock at the current
// instant. The event that called Halt completes normally. The flag is
// sticky — later RunUntil calls return immediately — until ClearHalt.
//
// This is the fail-fast hook of the online invariant checker: the first
// violation stops the simulation at its exact simulated time, so fault-
// schedule search pays for one violation, not the full run. Halt is not
// safe to call from shard goroutines; call it from serially executed code
// (root-scheduler actions, or any event of an unsharded run).
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

// peek returns the earliest live deadline without removing it, reaping dead
// entries that surface at the top.
func (h *schedHeap) peek() (Time, bool) {
	for len(h.events) > 0 && h.events[0].dead() {
		h.pop()
		h.nstopped--
	}
	if len(h.events) == 0 {
		return 0, false
	}
	return h.events[0].at, true
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
