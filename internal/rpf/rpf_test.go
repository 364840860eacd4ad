package rpf

import (
	"math/rand"
	"testing"

	"pim/internal/addr"
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
