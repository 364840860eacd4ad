// Package unicast provides the unicast routing substrate beneath the
// multicast protocols. The paper's third design requirement (§2, "Routing
// Protocol Independent") is that PIM consume unicast routing *tables*
// without caring how they were computed; this package expresses that as the
// Router interface and supplies three interchangeable implementations:
//
//   - Oracle: a static global-knowledge computation (instant convergence),
//     the default substrate for protocol experiments;
//   - DV: a RIP-like distance-vector protocol with split horizon and
//     poisoned reverse, running over simulated message exchange;
//   - LS: an OSPF-like link-state protocol flooding LSAs and running the
//     oracle's own SPF over its database, so that once converged its
//     tables are the oracle's, route for route.
//
// The oracle and LS share one graph builder, solve and owner rule
// (oracle.go); they differ only in the live rule that says which links
// and prefixes the graph holds: the network's up bits, or the LSAs. PIM
// runs identically over all three (asserted by integration tests and by
// the corpus run over each), demonstrating the protocol-independence
// claim.
package unicast

import (
	"fmt"
	"slices"
	"sort"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// InfMetric marks unreachable routes.
const InfMetric = int64(1) << 40

// Route is one forwarding decision: the outgoing interface, the next-hop
// neighbor address (0 when the destination is directly connected), and the
// path metric.
type Route struct {
	Iface   *netsim.Iface
	NextHop addr.IP
	Metric  int64
}

// Router is the protocol-independent lookup surface the multicast protocols
// consume. Lookup performs a longest-prefix-match for dst; ok is false when
// no route exists. OnChange registers a callback fired whenever any route
// may have changed — PIM reacts per §3.8 by re-running its RPF checks. Gen
// returns a monotonically increasing generation counter bumped on every
// route mutation; cached derivations of the table (internal/rpf) revalidate
// with one integer compare instead of a fresh lookup.
type Router interface {
	Lookup(dst addr.IP) (Route, bool)
	OnChange(func())
	Gen() uint64
}

// tableEntry pairs a prefix with its route.
type tableEntry struct {
	prefix addr.Prefix
	route  Route
}

// entryLess orders entries by descending prefix length, then address — the
// scan order that makes the linear reference lookup a longest-prefix match.
func entryLess(a, b tableEntry) bool {
	if a.prefix.Len != b.prefix.Len {
		return a.prefix.Len > b.prefix.Len
	}
	return a.prefix.Addr < b.prefix.Addr
}

// Table is a longest-prefix-match routing table. It is the concrete store
// shared by all three Router implementations. The sorted entry slice is the
// authoritative store (and the reference lookup path); the multibit trie is
// the fast path derived from it (see trie.go).
type Table struct {
	entries   []tableEntry // sorted by descending prefix length, then address
	listeners []func()
	trie      lpmTrie
	gen       uint64
}

// find locates the entry with exactly prefix p via binary search, returning
// its index and whether it is present; absent, the index is the insertion
// point that keeps the slice sorted.
func (t *Table) find(p addr.Prefix) (int, bool) {
	probe := tableEntry{prefix: p}
	i := sort.Search(len(t.entries), func(i int) bool {
		return !entryLess(t.entries[i], probe)
	})
	return i, i < len(t.entries) && t.entries[i].prefix == p
}

// Set installs or replaces the route for a prefix, inserting in sorted
// position (the table stays sorted without re-sorting, so a convergence
// storm of n inserts costs O(n²) moves worst case instead of n full sorts).
func (t *Table) Set(p addr.Prefix, r Route) {
	t.gen++
	i, ok := t.find(p)
	if ok {
		t.entries[i].route = r
	} else {
		t.entries = slices.Insert(t.entries, i, tableEntry{prefix: p, route: r})
	}
	if !t.trie.dirty {
		if r.Metric < InfMetric {
			t.trie.insert(p, r)
		} else if ok {
			// A reachable route may have been overwritten by an
			// unreachable one: the expansion must be recomputed.
			t.trie.dirty = true
		}
	}
}

// Delete removes the route for a prefix if present.
func (t *Table) Delete(p addr.Prefix) {
	i, ok := t.find(p)
	if !ok {
		return
	}
	t.gen++
	t.entries = slices.Delete(t.entries, i, i+1)
	t.trie.dirty = true
}

// Get returns the exact-match route for a prefix. Unreachable routes
// (metric ≥ InfMetric) report ok=false, matching Lookup's view that they do
// not exist; the raw entry is still held for the routing protocols' own
// bookkeeping via Prefixes.
func (t *Table) Get(p addr.Prefix) (Route, bool) {
	if i, ok := t.find(p); ok && t.entries[i].route.Metric < InfMetric {
		return t.entries[i].route, true
	}
	return Route{}, false
}

// Lookup performs longest-prefix matching from the multibit trie
// (allocation-free once warm). The linear-scan reference it is held to lives
// in lpm_test.go (TestTrieMatchesLinearScan).
func (t *Table) Lookup(dst addr.IP) (Route, bool) {
	if t.trie.dirty || t.trie.root == nil {
		t.trie.rebuild(t.entries)
	}
	return t.trie.lookup(dst)
}

// Len returns the number of installed prefixes.
func (t *Table) Len() int { return len(t.entries) }

// Prefixes returns the installed prefixes, most-specific first.
func (t *Table) Prefixes() []addr.Prefix {
	out := make([]addr.Prefix, len(t.entries))
	for i, e := range t.entries {
		out[i] = e.prefix
	}
	return out
}

// Gen returns the table's generation counter: it increases on every Set,
// Delete, Replace, and NotifyChanged, so any cached derivation carrying the
// generation it was computed at can detect staleness with one compare
// (§3.8: route changes must be reflected by the next RPF check).
func (t *Table) Gen() uint64 { return t.gen }

// OnChange registers a route-change listener.
func (t *Table) OnChange(fn func()) { t.listeners = append(t.listeners, fn) }

// NotifyChanged fires the registered listeners. The routing protocol
// implementations call this once per batch of changes.
func (t *Table) NotifyChanged() {
	t.gen++
	for _, fn := range t.listeners {
		fn()
	}
}

// Replace swaps the whole table contents for the given entries (already
// validated) and reports whether anything changed. LS recomputes its whole
// table on every SPF and installs it here.
func (t *Table) Replace(entries map[addr.Prefix]Route) bool {
	if len(entries) == len(t.entries) {
		same := true
		for _, e := range t.entries {
			r, ok := entries[e.prefix]
			if !ok || r != e.route {
				same = false
				break
			}
		}
		if same {
			return false
		}
	}
	t.gen++
	t.entries = t.entries[:0]
	for p, r := range entries {
		t.entries = append(t.entries, tableEntry{prefix: p, route: r})
	}
	slices.SortFunc(t.entries, func(a, b tableEntry) int {
		if entryLess(a, b) {
			return -1
		}
		if entryLess(b, a) {
			return 1
		}
		return 0
	})
	t.trie.dirty = true
	return true
}

// String dumps the table for debugging.
func (t *Table) String() string {
	s := ""
	for _, e := range t.entries {
		s += fmt.Sprintf("%v via %v metric %d\n", e.prefix, e.route.NextHop, e.route.Metric)
	}
	return s
}

// LinkPrefix returns the conventional /24 subnet covering an interface
// address: every simulated link is numbered inside its own /24 (see
// internal/scenario), so an interface's connected prefix is derivable from
// its address alone.
func LinkPrefix(ip addr.IP) addr.Prefix { return addr.MustPrefix(ip, 24) }
