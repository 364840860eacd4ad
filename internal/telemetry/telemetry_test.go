package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
)

func TestBusFanOutInOrder(t *testing.T) {
	b := NewBus()
	var got []string
	b.Subscribe(func(ev Event) { got = append(got, "a:"+ev.Kind.String()) })
	b.Subscribe(func(ev Event) { got = append(got, "b:"+ev.Kind.String()) })
	b.Publish(Event{Kind: JoinPruneSend})
	b.Publish(Event{Kind: Deliver})
	want := []string{"a:joinprune-send", "b:joinprune-send", "a:deliver", "b:deliver"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestSamplerCurves(t *testing.T) {
	b := NewBus()
	s := NewSampler(b, netsim.Second)
	// Router 0: two entries created in bucket 0, one expires in bucket 2.
	b.Publish(Event{At: 100 * netsim.Millisecond, Kind: EntryCreate, Router: 0})
	b.Publish(Event{At: 200 * netsim.Millisecond, Kind: EntryCreate, Router: 0})
	b.Publish(Event{At: 500 * netsim.Millisecond, Kind: JoinPruneSend, Router: 0})
	b.Publish(Event{At: 2500 * netsim.Millisecond, Kind: EntryExpire, Router: 0})
	b.Publish(Event{At: 2600 * netsim.Millisecond, Kind: MemberAdSend, Router: 0, Value: 3})
	// Router 3: a delivery, a drop, and two timer fires in bucket 1, replayed
	// as a recorded stream. The scheduler readings are not folded from events:
	// the dump carries what the run's owner recorded.
	b.Replay([]Event{
		{At: 1200 * netsim.Millisecond, Kind: Deliver, Router: 3},
		{At: 1300 * netsim.Millisecond, Kind: RPFDrop, Router: 3},
		{At: 1400 * netsim.Millisecond, Kind: TimerFire, Router: 3},
		{At: 1500 * netsim.Millisecond, Kind: TimerFire, Router: 3},
	})
	s.LiveTimerPeak, s.Shards = 42, []netsim.ShardLoad{{Shard: 0, Events: 9}, {Shard: 1, Events: 4}}

	d := s.Curves()
	if len(d.Routers) != 2 || d.Routers[0].Router != 0 || d.Routers[1].Router != 3 {
		t.Fatalf("routers = %+v", d.Routers)
	}
	r0 := d.Routers[0].Samples
	if len(r0) != 3 {
		t.Fatalf("r0 has %d samples, want 3", len(r0))
	}
	if r0[0].State != 2 || r0[0].Ctrl != 1 {
		t.Errorf("r0 bucket0 = %+v, want state=2 ctrl=1", r0[0])
	}
	if r0[1].State != 2 {
		t.Errorf("r0 bucket1 state = %d, want carried-forward 2", r0[1].State)
	}
	if r0[2].State != 1 || r0[2].Ctrl != 1 {
		t.Errorf("r0 bucket2 = %+v, want state=1 and the member-ad send as ctrl=1", r0[2])
	}
	r3 := d.Routers[1].Samples
	if r3[1].Delivered != 1 || r3[1].Drops != 1 || r3[1].TimerFires != 2 {
		t.Errorf("r3 bucket1 = %+v, want delivered=1 drops=1 timerFires=2", r3[1])
	}
	if d.LiveTimerPeak != 42 || len(d.Shards) != 2 || d.Shards[1].Events != 4 {
		t.Errorf("LiveTimerPeak = %d, Shards = %+v, want the recorded 42 and two shards", d.LiveTimerPeak, d.Shards)
	}
	// Two entries were simultaneously installed at the peak.
	if d.LiveEntryPeak != 2 {
		t.Errorf("LiveEntryPeak = %d, want 2", d.LiveEntryPeak)
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"interval_sec": 1`) {
		t.Errorf("JSON dump missing interval: %s", buf.String())
	}
}

func TestProbeDeliveryQueries(t *testing.T) {
	b := NewBus()
	p := NewConvergenceProbe(b)
	b.Publish(Event{At: 10 * netsim.Second, Kind: Deliver, Router: 3, Value: int64(9 * netsim.Second)})
	b.Publish(Event{At: 20 * netsim.Second, Kind: Deliver, Router: 3, Value: int64(19 * netsim.Second)})
	b.Publish(Event{At: 70 * netsim.Second, Kind: Deliver, Router: 3, Value: int64(65 * netsim.Second)})

	if at, ok := p.FirstDelivery(3); !ok || at != 10*netsim.Second {
		t.Errorf("FirstDelivery = %v,%v", at, ok)
	}
	if _, ok := p.FirstDelivery(4); ok {
		t.Error("FirstDelivery for silent site should report none")
	}
	if at, ok := p.FirstDeliveryAt(3, 15*netsim.Second); !ok || at != 20*netsim.Second {
		t.Errorf("FirstDeliveryAt = %v,%v", at, ok)
	}
	// Fault at t=60: the packet delivered at t=70 was sent at 65 (>60), the
	// earlier ones were in flight before the fault.
	if at, ok := p.FirstDeliverySentAfter(3, 60*netsim.Second); !ok || at != 70*netsim.Second {
		t.Errorf("FirstDeliverySentAfter = %v,%v", at, ok)
	}
	if p.Delivered(3) != 3 {
		t.Errorf("Delivered = %d", p.Delivered(3))
	}
}

func TestProbeStabilization(t *testing.T) {
	b := NewBus()
	p := NewConvergenceProbe(b)
	if !p.StabilizedFor(100*netsim.Second, 10*netsim.Second) {
		t.Error("no mutations ever: should count as stabilized")
	}
	b.Publish(Event{At: 50 * netsim.Second, Kind: EntryCreate, Router: 1})
	if p.StabilizedFor(55*netsim.Second, 10*netsim.Second) {
		t.Error("mutation 5s ago with 10s quiet window: not stabilized")
	}
	if !p.StabilizedFor(60*netsim.Second, 10*netsim.Second) {
		t.Error("mutation 10s ago: stabilized")
	}
	if at, ok := p.LastTreeMutation(); !ok || at != 50*netsim.Second {
		t.Errorf("LastTreeMutation = %v,%v", at, ok)
	}
}

// TestCheckerStaleEpochTimer injects a forged timer firing from a dead epoch
// and asserts the checker trips. A live engine can never produce this event
// (the epoch guard makes stale closures inert before the publish site), so
// the negative test feeds the checker directly.
func TestCheckerStaleEpochTimer(t *testing.T) {
	b := NewBus()
	c := NewChecker(b)
	// Router 2 restarts into epoch 1 with a clean table, then a timer armed
	// under epoch 0 fires.
	b.Publish(Event{At: 5 * netsim.Second, Kind: EpochStart, Router: 2, Epoch: 1, Value: 0})
	b.Publish(Event{At: 6 * netsim.Second, Kind: TimerFire, Router: 2, Epoch: 1})
	if err := c.Err(); err != nil {
		t.Fatalf("current-epoch timer flagged: %v", err)
	}
	b.Publish(Event{At: 7 * netsim.Second, Kind: TimerFire, Router: 2, Epoch: 0})
	if err := c.Err(); err == nil {
		t.Fatal("stale-epoch timer not flagged")
	}
	if n := len(c.Violations()); n != 1 {
		t.Fatalf("violations = %d, want 1", n)
	}
}

func TestCheckerDirtyRestart(t *testing.T) {
	b := NewBus()
	c := NewChecker(b)
	b.Publish(Event{Kind: EpochStart, Router: 1, Epoch: 0, Value: 0})
	b.Publish(Event{Kind: EpochStart, Router: 1, Epoch: 1, Value: 3})
	if err := c.Err(); err == nil {
		t.Fatal("restart with learned state not flagged")
	}
}

func TestCheckerBoundCallbacks(t *testing.T) {
	b := NewBus()
	c := NewChecker(b)
	c.ExpectedIIF = func(router int, target addr.IP) (int, bool) { return 7, true }
	c.NegativeCached = func(router int, s, g addr.IP, iface int) bool { return iface == 4 }

	b.Publish(Event{Kind: IIFSet, Router: 0, Iface: 7, Source: addr.V4(10, 0, 0, 1)})
	b.Publish(Event{Kind: DataForward, Router: 0, Iface: 3, Value: 1})
	b.Publish(Event{Kind: DataForward, Router: 0, Iface: 4, Value: 0}) // SPT list: exempt
	if err := c.Err(); err != nil {
		t.Fatalf("clean events flagged: %v", err)
	}
	b.Publish(Event{Kind: IIFSet, Router: 0, Iface: 2, Source: addr.V4(10, 0, 0, 1)})
	b.Publish(Event{Kind: DataForward, Router: 0, Iface: 4, Value: 1})
	if n := len(c.Violations()); n != 2 {
		t.Fatalf("violations = %d, want 2 (RPF mismatch + negative-cache fan-out)", n)
	}
}

// failFastStream is a forged event sequence carrying three violations: a
// stale-epoch timer at t=7s, a dirty restart at t=8s, and a second stale
// timer at t=9s.
func failFastStream(b *Bus) {
	b.Publish(Event{At: 5 * netsim.Second, Kind: EpochStart, Router: 2, Epoch: 1, Value: 0})
	b.Publish(Event{At: 7 * netsim.Second, Kind: TimerFire, Router: 2, Epoch: 0})
	b.Publish(Event{At: 8 * netsim.Second, Kind: EpochStart, Router: 3, Epoch: 2, Value: 5})
	b.Publish(Event{At: 9 * netsim.Second, Kind: TimerFire, Router: 2, Epoch: 0})
}

// TestCheckerFailFastHaltsOnceDeterministically pins the fail-fast
// contract: Halt fires exactly once, at the first violation, and the
// recorded outcome is exactly that violation — identically on every run of
// the same stream.
func TestCheckerFailFastHaltsOnceDeterministically(t *testing.T) {
	run := func() (halts int, violations []Violation) {
		b := NewBus()
		c := NewChecker(b)
		c.SetFailFast(true)
		c.Halt = func() { halts++ }
		failFastStream(b)
		return halts, c.Violations()
	}
	h1, v1 := run()
	h2, v2 := run()
	if h1 != 1 {
		t.Fatalf("Halt called %d times, want exactly 1", h1)
	}
	if len(v1) != 1 {
		t.Fatalf("fail-fast recorded %d violations, want exactly the first", len(v1))
	}
	if v1[0].At != 7*netsim.Second || v1[0].Router != 2 {
		t.Fatalf("first violation = %v, want the t=7s stale timer on r2", v1[0])
	}
	if h1 != h2 || len(v1) != len(v2) || v1[0] != v2[0] {
		t.Fatalf("halt not deterministic: (%d,%v) vs (%d,%v)", h1, v1, h2, v2)
	}
	// The same stream without fail-fast accumulates all three.
	b := NewBus()
	c := NewChecker(b)
	failFastStream(b)
	if n := len(c.Violations()); n != 3 {
		t.Fatalf("accumulating checker saw %d violations, want 3", n)
	}
}

// TestCheckerFailFastWithoutHalt verifies SetFailFast alone (no Halt bound)
// still caps the record at the first violation without panicking.
func TestCheckerFailFastWithoutHalt(t *testing.T) {
	b := NewBus()
	c := NewChecker(b)
	c.SetFailFast(true)
	failFastStream(b)
	if n := len(c.Violations()); n != 1 {
		t.Fatalf("violations = %d, want 1", n)
	}
}
