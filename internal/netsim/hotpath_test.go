package netsim

import (
	"reflect"
	"slices"
	"testing"

	"pim/internal/addr"
	"pim/internal/packet"
)

// TestStoppedTimerCompaction pins the timer-heap leak fix on the reference
// heap: cancelling long-deadline timers must reclaim their heap slots well
// before the deadline, or churn experiments grow the heap without bound.
// (The timing wheel reclaims lazily instead — see TestWheelStopReclaim.)
func TestStoppedTimerCompaction(t *testing.T) {
	s := NewSchedulerWith(false)
	const n = 1000
	timers := make([]*Timer, n)
	for i := range timers {
		timers[i] = s.After(Time(1000000+i), func() { t.Error("stopped timer fired") })
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if p := s.Pending(); p != 0 {
		t.Errorf("Pending = %d after stopping every timer, want 0 (compacted)", p)
	}
	// The scheduler must still work normally afterwards.
	fired := false
	s.After(5, func() { fired = true })
	s.Run(0)
	if !fired {
		t.Error("scheduler broken after compaction")
	}
}

// TestCompactionPreservesOrder: cancelling a random half of a same-time
// burst must not disturb the FIFO order of the survivors.
func TestCompactionPreservesOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	var cancel []*Timer
	for i := 0; i < 200; i++ {
		i := i
		tm := s.After(7, func() { order = append(order, i) })
		if i%2 == 1 {
			cancel = append(cancel, tm)
		}
	}
	for _, tm := range cancel {
		tm.Stop()
	}
	s.Run(0)
	if len(order) != 100 {
		t.Fatalf("fired %d, want 100", len(order))
	}
	for k := 1; k < len(order); k++ {
		if order[k] <= order[k-1] {
			t.Fatalf("order not FIFO after compaction: %v...", order[:k+1])
		}
	}
}

// TestPostOrderInterleavesWithTimers: Post events share the same (time,
// scheduling order) sequence as After timers.
func TestPostOrderInterleavesWithTimers(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.After(5, func() { order = append(order, 0) })
	s.Post(5, func() { order = append(order, 1) })
	s.After(5, func() { order = append(order, 2) })
	s.Post(3, func() { order = append(order, 3) })
	s.Run(0)
	want := []int{3, 0, 1, 2}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestLANReceiversGetIndependentHeaders: with the frame decoded once per
// crossing, a handler that mutates its packet header must not affect what
// the next station on the LAN sees.
func TestLANReceiversGetIndependentHeaders(t *testing.T) {
	n := NewNetwork()
	var ifaces []*Iface
	var ttls []byte
	for i := 0; i < 4; i++ {
		nd := n.AddNode("r")
		ifc := n.AddIface(nd, addr.V4(10, 1, 0, byte(i+1)))
		ifaces = append(ifaces, ifc)
		nd.Handle(packet.ProtoPIM, HandlerFunc(func(in *Iface, pkt *packet.Packet) {
			ttls = append(ttls, pkt.TTL)
			pkt.TTL = 0 // deliberate in-place mutation
		}))
	}
	n.ConnectLAN(1, ifaces...)
	pkt := packet.New(ifaces[0].Addr, addr.AllRouters, packet.ProtoPIM, []byte{1})
	ifaces[0].Node.Send(ifaces[0], pkt, 0)
	n.Sched.Run(0)
	if len(ttls) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(ttls))
	}
	for i, ttl := range ttls {
		if ttl != packet.DefaultTTL {
			t.Errorf("station %d saw TTL %d, want %d (header leaked between receivers)",
				i, ttl, packet.DefaultTTL)
		}
	}
}

// TestPoisonClearsKeptHeader: the decoded header a handler receives is the
// firing scheduler's scratch, so keeping the *packet.Packet past return breaks
// the borrowed-frame contract. In poison mode the kept header must read as the
// zero Packet once the fan-out ends.
func TestPoisonClearsKeptHeader(t *testing.T) {
	prev := SetPoisonFrames(true)
	defer SetPoisonFrames(prev)
	n := NewNetwork()
	a, b := n.AddNode("a"), n.AddNode("b")
	ia := n.AddIface(a, addr.V4(10, 1, 0, 1))
	ib := n.AddIface(b, addr.V4(10, 1, 0, 2))
	n.Connect(ia, ib, 10)
	var kept *packet.Packet
	var src addr.IP
	b.Handle(packet.ProtoUDP, HandlerFunc(func(in *Iface, pkt *packet.Packet) {
		kept, src = pkt, pkt.Src
	}))
	a.Sched().After(1, func() {
		a.Send(ia, packet.New(ia.Addr, ib.Addr, packet.ProtoUDP, []byte{1, 2}), 0)
	})
	n.Sched.RunUntil(100)
	if kept == nil || src != ia.Addr {
		t.Fatalf("handler saw src %v, want %v", src, ia.Addr)
	}
	if !reflect.DeepEqual(*kept, packet.Packet{}) {
		t.Errorf("kept header reads %+v after the fan-out, want the zero Packet", *kept)
	}
}

// TestLANDeliverAllocs bounds the allocation cost of one LAN broadcast
// crossing with testing.AllocsPerRun: one frame buffer, one decoded packet,
// one delivery closure/event — not one of each per receiver.
func TestLANDeliverAllocs(t *testing.T) {
	n := NewNetwork()
	var ifaces []*Iface
	for i := 0; i < 8; i++ {
		nd := n.AddNode("r")
		nd.Handle(packet.ProtoPIM, HandlerFunc(func(in *Iface, pkt *packet.Packet) {}))
		ifaces = append(ifaces, n.AddIface(nd, addr.V4(10, 1, 0, byte(i+1))))
	}
	n.ConnectLAN(1, ifaces...)
	pkt := packet.New(ifaces[0].Addr, addr.AllRouters, packet.ProtoPIM, make([]byte, 32))
	allocs := testing.AllocsPerRun(200, func() {
		ifaces[0].Node.Send(ifaces[0], pkt, 0)
		n.Sched.Run(0)
	})
	// Marshal buffer, unmarshalled packet, Send closure, 7 per-receiver
	// header copies that escape into handlers, plus small slack. The old
	// per-receiver path cost ~3 heap objects per station on top of that.
	if allocs > 14 {
		t.Errorf("LAN crossing allocates %.1f objects, want <= 14", allocs)
	}
}

// TestSchedulerPostAllocs: the fire-and-forget scheduling path must not
// allocate per event beyond the caller's closure (heap growth amortizes to
// zero with a warm backing array).
func TestSchedulerPostAllocs(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	// Warm the wheel's spare chunks, the due buffer and the Post records.
	for i := 0; i < 512; i++ {
		s.Post(Time(i), fn)
	}
	s.Run(0)
	allocs := testing.AllocsPerRun(1000, func() {
		s.Post(1, fn)
		s.Step()
	})
	if allocs > 0 {
		t.Errorf("Post allocates %.2f per event, want 0", allocs)
	}
}

// TestPostRecordsArePrivate: Post recycles its records, never a handle. A
// fired After handle keeps reporting what it did while a thousand Posts
// reuse records around it, and every Post runs exactly once.
func TestPostRecordsArePrivate(t *testing.T) {
	s := NewScheduler()
	tm := s.After(5, func() {})
	s.Run(0)
	ran := make([]int, 1000)
	for i := range ran {
		s.Post(Time(i%3), func() { ran[i]++ })
		if i%2 == 1 {
			s.Run(0)
		}
	}
	s.Run(0)
	if tm.Stop() || tm.Active() || tm.When() != 5 {
		t.Errorf("fired handle: Stop %v, Active %v, When %d; want false, false, 5", tm.Stop(), tm.Active(), tm.When())
	}
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("Post %d ran %d times, want 1", i, n)
		}
	}
	if len(s.posts) == 0 || len(s.posts) > 2 || slices.Contains(s.posts, tm) {
		t.Errorf("free list holds %d records (handle among them: %v), want 1-2 Post records", len(s.posts), slices.Contains(s.posts, tm))
	}
}

// TestPeriodicBurstIntoColdSlotsAllocs: a protocol's periodic burst (every
// router's query at one instant, delivered a few link delays later) lands in
// slots whose indexes move with the clock. Capacity grown for one period's
// burst must serve the next period's wherever it lands: after the first
// period, scheduling and firing the burst allocates nothing. (With capacity
// kept per slot, every period that met a slot index for the first time grew
// it again.)
func TestPeriodicBurstIntoColdSlotsAllocs(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	// 30 s is not a multiple of any level's span, so each period's deliveries
	// fall in other level-0, -1 and -2 slots than the last one's.
	const period = 30 * Second
	burst := func() {
		for i := 0; i < 600; i++ {
			s.Post(Millisecond*Time(1+i%7), fn)
		}
		s.Post(period, fn)
		s.Run(0)
	}
	burst()
	burst()
	if allocs := testing.AllocsPerRun(50, burst); allocs > 0 {
		t.Errorf("a periodic burst allocates %.2f per period once warm, want 0", allocs)
	}
}

// BenchmarkLANDeliver measures one frame crossing a 10-station LAN: flat
// handler table, single unmarshal, one event per crossing.
func BenchmarkLANDeliver(b *testing.B) {
	n := NewNetwork()
	var ifaces []*Iface
	for i := 0; i < 10; i++ {
		nd := n.AddNode("n")
		nd.Handle(packet.ProtoUDP, HandlerFunc(func(in *Iface, pkt *packet.Packet) {}))
		ifaces = append(ifaces, n.AddIface(nd, addr.V4(10, 0, 0, byte(i+1))))
	}
	n.ConnectLAN(1, ifaces...)
	pkt := packet.New(ifaces[0].Addr, addr.AllSystems, packet.ProtoUDP, make([]byte, 64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ifaces[0].Node.Send(ifaces[0], pkt, 0)
		n.Sched.Run(0)
	}
}
