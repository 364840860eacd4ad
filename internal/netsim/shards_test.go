package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"pim/internal/addr"
	"pim/internal/packet"
)

// ringResult is everything observable from one ring-flood run: each node's
// event log (its private stream — appended only from its own shard, so the
// comparison is race-free by construction) and the folded network counters.
type ringResult struct {
	logs  [][]string
	stats Stats
}

// runRing builds a 9-node ring, floods it with TTL-limited packets from
// every node on colliding schedules, flaps one link mid-run via a root
// action, and returns the per-node logs and final stats. All link delays are
// equal and the pump interval divides into them, so many packets collide on
// the same microsecond — exactly the tie patterns the structural ordering
// key must resolve identically on both execution paths.
func runRing(shards int) ringResult {
	const n = 9
	net := NewNetwork()
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = net.AddNode(fmt.Sprintf("r%d", i))
		net.AddIface(nodes[i], addr.V4(10, byte(i), 0, 1))
		net.AddIface(nodes[i], addr.V4(10, byte(i), 0, 2))
	}
	var links []*Link
	for i := range nodes {
		j := (i + 1) % n
		links = append(links, net.Connect(nodes[i].Ifaces[1], nodes[j].Ifaces[0], 10))
	}
	if shards > 1 {
		net.Shard(shards, func(nd *Node) int {
			for i, cand := range nodes {
				if cand == nd {
					return i * shards / n
				}
			}
			panic("unknown node")
		})
	}

	logs := make([][]string, n)
	for i := range nodes {
		i := i
		nd := nodes[i]
		nd.Handle(packet.ProtoUDP, HandlerFunc(func(in *Iface, pkt *packet.Packet) {
			logs[i] = append(logs[i], fmt.Sprintf("%d recv %v", nd.Sched().Now(), pkt.Payload))
			ttl := pkt.Payload[2]
			if ttl == 0 {
				return
			}
			out := nd.Ifaces[0]
			if in == out {
				out = nd.Ifaces[1]
			}
			fwd := packet.New(pkt.Src, pkt.Dst, packet.ProtoUDP,
				[]byte{pkt.Payload[0], pkt.Payload[1], ttl - 1})
			nd.Send(out, fwd, 0)
		}))
	}
	for i := range nodes {
		i := i
		nd := nodes[i]
		sched := nd.Sched()
		seq := 0
		var pump func()
		pump = func() {
			logs[i] = append(logs[i], fmt.Sprintf("%d send %d", sched.Now(), seq))
			for _, out := range nd.Ifaces {
				pkt := packet.New(nd.Addr(), addr.V4(224, 0, 0, 9), packet.ProtoUDP,
					[]byte{byte(i), byte(seq), 3})
				nd.Send(out, pkt, 0)
			}
			seq++
			sched.After(17, pump)
		}
		sched.After(Time(1+5*(i%3)), pump)
	}
	// Root actions: flap a ring link down and back up mid-run. These run on
	// the root scheduler and must land at the same point in the global event
	// order on both paths.
	net.Sched.At(571, func() { net.SetLinkUp(links[0], false) })
	net.Sched.At(1371, func() { net.SetLinkUp(links[0], true) })

	net.Sched.RunUntil(2000)
	return ringResult{logs: logs, stats: net.Stats}
}

// The netsim-level determinism gate: shard count must be unobservable —
// every node's event stream and every network counter must be bit-identical
// to the sequential run's.
func TestShardedRingMatchesSequential(t *testing.T) {
	base := runRing(1)
	if len(base.logs[0]) == 0 || base.stats.Received == 0 {
		t.Fatal("sequential oracle saw no traffic")
	}
	if base.stats.Drops[DropLinkDown] == 0 {
		t.Fatal("link flap produced no drops; root action untested")
	}
	for _, k := range []int{2, 3, 4} {
		got := runRing(k)
		for i := range base.logs {
			if !reflect.DeepEqual(got.logs[i], base.logs[i]) {
				at, what := diffAt(base.logs[i], got.logs[i])
				t.Fatalf("shards=%d: node %d log diverges at entry %d (seq vs shd): %s", k, i, at, what)
			}
		}
		if !reflect.DeepEqual(got.stats, base.stats) {
			t.Errorf("shards=%d: stats diverge:\n  seq: %+v\n  shd: %+v", k, base.stats, got.stats)
		}
	}
}

// diffAt locates the first diverging entry of two logs for failure messages.
func diffAt(a, b []string) (int, string) {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i, fmt.Sprintf("%q vs %q", a[i], b[i])
		}
	}
	return len(a), fmt.Sprintf("length %d vs %d", len(a), len(b))
}

// Guard rails: topologies the sharded runner cannot execute must refuse
// loudly, not corrupt results.
func TestShardedGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}

	// A multi-access LAN spanning shards.
	mustPanic("lan-spans-shards", func() {
		net := NewNetwork()
		var ifaces []*Iface
		for i := 0; i < 3; i++ {
			nd := net.AddNode(fmt.Sprintf("l%d", i))
			ifaces = append(ifaces, net.AddIface(nd, addr.V4(10, 9, 0, byte(i+1))))
		}
		net.ConnectLAN(10, ifaces...)
		k := 0
		net.Shard(2, func(*Node) int { k++; return k % 2 })
		net.Sched.RunUntil(100)
	})

	// Sharding after events have been scheduled.
	mustPanic("shard-after-schedule", func() {
		net := NewNetwork()
		net.AddNode("a")
		net.Sched.After(5, func() {})
		net.Shard(2, func(*Node) int { return 0 })
	})

	// Sharding twice.
	mustPanic("shard-twice", func() {
		net := NewNetwork()
		net.AddNode("a")
		net.Shard(2, func(*Node) int { return 0 })
		net.Shard(2, func(*Node) int { return 0 })
	})

	// A shard index out of range.
	mustPanic("shard-out-of-range", func() {
		net := NewNetwork()
		net.AddNode("a")
		net.Shard(2, func(*Node) int { return 7 })
	})
}
