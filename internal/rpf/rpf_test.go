package rpf

import (
	"math/rand"
	"testing"
	"unsafe"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/unicast"
)

func reachable(metric int64) unicast.Route {
	return unicast.Route{NextHop: addr.V4(10, 0, 0, byte(metric)), Metric: metric}
}

// TestNeverServesStaleAfterRouteChange is the generation-invalidation test:
// any table mutation — including one that has not yet fired NotifyChanged —
// must be visible to the very next cached lookup (§3.8 semantics).
func TestNeverServesStaleAfterRouteChange(t *testing.T) {
	tb := &unicast.Table{}
	p := addr.MustPrefix(addr.V4(10, 1, 0, 0), 16)
	dst := addr.V4(10, 1, 2, 3)
	c := New(tb)

	tb.Set(p, reachable(1))
	if r, ok := c.Lookup(dst); !ok || r.Metric != 1 {
		t.Fatalf("initial = %+v, %v", r, ok)
	}
	// Mutate WITHOUT NotifyChanged: mid-batch lookups must already see it.
	tb.Set(p, reachable(2))
	if r, ok := c.Lookup(dst); !ok || r.Metric != 2 {
		t.Fatalf("after Set = %+v, %v (stale cache served)", r, ok)
	}
	tb.Delete(p)
	if _, ok := c.Lookup(dst); ok {
		t.Fatal("after Delete: stale positive served")
	}
	// Negative result is cached; route appearing must invalidate it.
	tb.Set(p, reachable(3))
	if r, ok := c.Lookup(dst); !ok || r.Metric != 3 {
		t.Fatalf("after re-add = %+v, %v (stale negative served)", r, ok)
	}
	tb.Replace(map[addr.Prefix]unicast.Route{p: reachable(4)})
	if r, ok := c.Lookup(dst); !ok || r.Metric != 4 {
		t.Fatalf("after Replace = %+v, %v", r, ok)
	}
	tb.NotifyChanged()
	if r, ok := c.Lookup(dst); !ok || r.Metric != 4 {
		t.Fatalf("after NotifyChanged = %+v, %v", r, ok)
	}
}

// TestDifferentialAgainstDirectLookup drives random mutations and probes,
// checking the cache is transparent: identical to uncached Router.Lookup.
func TestDifferentialAgainstDirectLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := &unicast.Table{}
	c := New(tb)
	prefixes := make([]addr.Prefix, 16)
	for i := range prefixes {
		prefixes[i] = addr.MustPrefix(addr.V4(10, byte(i), 0, 0), 16)
	}
	for step := 0; step < 2000; step++ {
		p := prefixes[rng.Intn(len(prefixes))]
		switch rng.Intn(4) {
		case 0:
			tb.Delete(p)
		default:
			tb.Set(p, reachable(int64(rng.Intn(100)+1)))
		}
		for probe := 0; probe < 4; probe++ {
			dst := addr.V4(10, byte(rng.Intn(len(prefixes))), 1, 1)
			wantR, wantOK := tb.Lookup(dst)
			gotR, gotOK := c.Lookup(dst)
			if gotOK != wantOK || gotR != wantR {
				t.Fatalf("step %d: cache %+v,%v != direct %+v,%v", step, gotR, gotOK, wantR, wantOK)
			}
			// Repeat hit must match too.
			gotR, gotOK = c.Lookup(dst)
			if gotOK != wantOK || gotR != wantR {
				t.Fatalf("step %d: repeat hit diverged", step)
			}
		}
	}
}

// mapCache is the reference the flat table is held to: the same
// generation-validated memo over a Go map.
type mapCache struct {
	uni unicast.Router
	gen uint64
	m   map[addr.IP]memo
}

type memo struct {
	route unicast.Route
	ok    bool
}

func (c *mapCache) Lookup(dst addr.IP) (unicast.Route, bool) {
	if g := c.uni.Gen(); g != c.gen {
		clear(c.m)
		c.gen = g
	}
	if r, ok := c.m[dst]; ok {
		return r.route, r.ok
	}
	rt, ok := c.uni.Lookup(dst)
	c.m[dst] = memo{rt, ok}
	return rt, ok
}

// countingRouter counts the lookups that reach the unicast table.
type countingRouter struct {
	unicast.Router
	lookups int
}

func (c *countingRouter) Lookup(dst addr.IP) (unicast.Route, bool) {
	c.lookups++
	return c.Router.Lookup(dst)
}

// TestDifferentialAgainstMapCache holds the open-addressed table to the map
// memo it replaced: every lookup returns the same route and verdict, and the
// same lookups fall through to the unicast table (so hits, negative hits and
// generation flushes happen at the same points). The destination set grows
// the table through several doublings between flushes, and a third of the
// destinations have no route.
func TestDifferentialAgainstMapCache(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	tb := &unicast.Table{}
	for i := 0; i < 32; i++ {
		tb.Set(addr.MustPrefix(addr.V4(10, byte(i), 0, 0), 16), reachable(int64(i+1)))
	}
	flatUni, refUni := &countingRouter{Router: tb}, &countingRouter{Router: tb}
	flat, ref := New(flatUni), &mapCache{uni: refUni, m: map[addr.IP]memo{}}
	span := 64
	for step := 0; step < 40000; step++ {
		switch r := rng.Intn(1000); {
		case r == 0: // a route change: the generation moves
			p := addr.MustPrefix(addr.V4(10, byte(rng.Intn(48)), 0, 0), 16)
			if rng.Intn(3) == 0 {
				tb.Delete(p)
			} else {
				tb.Set(p, reachable(int64(rng.Intn(100)+1)))
			}
		case r == 1: // widen the destination set: the table grows
			span = min(2*span, 4096)
		}
		// 10.0–47.x.y: prefixes 32–47 are absent unless a change added them.
		n := rng.Intn(span)
		dst := addr.V4(10, byte(n%48), byte(n/48), byte(1+n%7))
		fr, fok := flat.Lookup(dst)
		rr, rok := ref.Lookup(dst)
		if fr != rr || fok != rok {
			t.Fatalf("step %d: Lookup(%v) = %+v,%v; map reference %+v,%v", step, dst, fr, fok, rr, rok)
		}
		if flatUni.lookups != refUni.lookups {
			t.Fatalf("step %d: %d table lookups through the cache, %d through the map reference", step, flatUni.lookups, refUni.lookups)
		}
	}
	if len(flat.cells) < 1024 {
		t.Errorf("table never grew past %d cells", len(flat.cells))
	}
}

// TestCellFootprint pins a cache cell at 24 bytes — the route's interface,
// next hop and metric around the destination, the cell's state folded into
// a nil interface and a sentinel metric — and round-trips each kind of
// cell exactly: a routed one, a connected one (next hop 0, metric 0) and a
// cached "no route", each served once by the unicast table and then from
// the cache.
func TestCellFootprint(t *testing.T) {
	if size := unsafe.Sizeof(cell{}); size != 24 {
		t.Errorf("cell is %d bytes, want 24", size)
	}
	nd := netsim.NewNetwork().AddNode("r")
	ifc := nd.Net.AddIface(nd, addr.V4(10, 1, 0, 1))
	tb := &unicast.Table{}
	routed := unicast.Route{Iface: ifc, NextHop: addr.V4(10, 1, 0, 2), Metric: unicast.InfMetric - 1}
	connected := unicast.Route{Iface: ifc}
	tb.Set(addr.MustPrefix(addr.V4(10, 2, 0, 0), 16), routed)
	tb.Set(addr.MustPrefix(addr.V4(10, 1, 0, 0), 16), connected)
	uni := &countingRouter{Router: tb}
	c := New(uni)
	for _, tc := range []struct {
		dst  addr.IP
		want unicast.Route
		ok   bool
	}{
		{addr.V4(10, 2, 3, 4), routed, true},
		{addr.V4(10, 1, 0, 9), connected, true},
		{addr.V4(99, 9, 9, 9), unicast.Route{}, false},
	} {
		for pass := 0; pass < 2; pass++ {
			before := uni.lookups
			got, ok := c.Lookup(tc.dst)
			if got != tc.want || ok != tc.ok {
				t.Errorf("pass %d: Lookup(%v) = %+v,%v; want %+v,%v", pass, tc.dst, got, ok, tc.want, tc.ok)
			}
			if hit := uni.lookups == before; hit != (pass == 1) {
				t.Errorf("pass %d: Lookup(%v) served from the cache: %v", pass, tc.dst, hit)
			}
		}
	}
}

// TestWarmHitAllocFree asserts the steady-state cost: a cache hit with an
// unchanged generation allocates nothing.
func TestWarmHitAllocFree(t *testing.T) {
	tb := &unicast.Table{}
	tb.Set(addr.MustPrefix(addr.V4(10, 1, 0, 0), 16), reachable(1))
	c := New(tb)
	dst := addr.V4(10, 1, 2, 3)
	miss := addr.V4(99, 9, 9, 9)
	c.Lookup(dst)
	c.Lookup(miss)
	if n := testing.AllocsPerRun(100, func() {
		c.Lookup(dst)
		c.Lookup(miss)
	}); n != 0 {
		t.Errorf("warm hit allocates %.1f per run", n)
	}
}

func BenchmarkRPFCacheHit(b *testing.B) {
	tb := &unicast.Table{}
	for i := 0; i < 128; i++ {
		tb.Set(addr.MustPrefix(addr.V4(10, 100, byte(i), 0), 24), reachable(int64(i+1)))
	}
	c := New(tb)
	dst := addr.V4(10, 100, 77, 1)
	c.Lookup(dst)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Lookup(dst)
	}
}

func BenchmarkRPFUncached(b *testing.B) {
	tb := &unicast.Table{}
	for i := 0; i < 128; i++ {
		tb.Set(addr.MustPrefix(addr.V4(10, 100, byte(i), 0), 24), reachable(int64(i+1)))
	}
	dst := addr.V4(10, 100, 77, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Lookup(dst)
	}
}
