// Package rpf caches reverse-path-forwarding resolutions against the
// unicast routing table.
//
// Every multicast protocol in this repository anchors its behaviour to an
// RPF check (PIM's §3.2 "the interface used to reach the source/RP", DVMRP
// and PIM-DM's per-packet reverse-path test, CBT's path toward the core,
// MOSPF's source-rooted tree side): in steady state the same few
// destinations — sources, RPs, cores — are resolved over and over, once per
// data packet or Join/Prune refresh, while the underlying routes change
// rarely. The cache turns those repeated longest-prefix matches into one
// generation compare and a short linear probe of a flat table whose 24-byte
// cells hold the destination and its route inline, so a warm hit usually
// reads one cache line of the table.
//
// Correctness is anchored to the paper's §3.8: a unicast route change must
// be reflected by the very next RPF check. The unicast Table bumps its
// generation counter on every mutation (Set/Delete/Replace/NotifyChanged),
// and the cache discards everything the moment the observed generation
// differs from the one its entries were computed at — so even a lookup
// performed mid-batch, after a Set but before NotifyChanged has fired the
// OnChange listeners, can never be served a stale result. Negative results
// (no route) are cached too: a source behind a partition would otherwise
// cost a full table miss per packet.
package rpf

import (
	"math/bits"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/unicast"
)

// noRoute is the metric of a cached "no route". A cell without an
// interface holds nothing when its metric is 0 — the zero value, so
// clearing the table is one clear of its slice — and a cached "no route"
// when its metric is noRoute; every other cell holds a route. Every route a
// substrate resolves has an interface, and metrics are never negative.
const noRoute = -1

// cell remembers one resolution, including "no route": the route's three
// fields laid out around the destination so the cell is 24 bytes.
type cell struct {
	iface   *netsim.Iface
	nextHop addr.IP
	dst     addr.IP
	metric  int64
}

func (e *cell) empty() bool { return e.iface == nil && e.metric == 0 }

func (e *cell) route() (unicast.Route, bool) {
	if e.iface == nil && e.metric == noRoute {
		return unicast.Route{}, false
	}
	return unicast.Route{Iface: e.iface, NextHop: e.nextHop, Metric: e.metric}, true
}

// Cache is a generation-validated memo of Router.Lookup results: an
// open-addressed table (linear probing, power-of-two size, grown at 3/4
// load, which keeps it at about the memory of the Go map it replaced)
// indexed by the top bits of a multiplicative hash of the destination. It is
// not safe for concurrent use; each simulated router owns one, and the
// simulator is single-threaded per scenario.
type Cache struct {
	uni   unicast.Router
	gen   uint64 // table generation the entries were resolved at
	cells []cell
	shift uint8 // 32 - log2(len(cells))
	n     int
}

// New wraps a unicast router with a fresh cache.
func New(uni unicast.Router) *Cache { return &Cache{uni: uni} }

// home returns dst's preferred cell: Fibonacci hashing, whose top bits mix
// every key bit (host addresses differ in their middle bytes, not the low
// ones).
func (c *Cache) home(dst addr.IP) uint32 { return uint32(dst) * 0x9E3779B9 >> c.shift }

// Lookup resolves the RPF route toward dst: from the cache when the table
// generation is unchanged, from the underlying router otherwise. A cached
// "no route" is the zero Route.
func (c *Cache) Lookup(dst addr.IP) (unicast.Route, bool) {
	if g := c.uni.Gen(); g != c.gen {
		clear(c.cells)
		c.n = 0
		c.gen = g
	}
	if c.n > 0 {
		mask := uint32(len(c.cells) - 1)
		for i := c.home(dst); ; i = (i + 1) & mask {
			e := &c.cells[i]
			if e.empty() {
				break
			}
			if e.dst == dst {
				return e.route()
			}
		}
	}
	rt, ok := c.uni.Lookup(dst)
	if ok && rt.Iface == nil && (rt.Metric == 0 || rt.Metric == noRoute) {
		// A cell cannot tell such a route from an empty cell or a cached
		// miss: serve it uncached.
		return rt, ok
	}
	e := cell{iface: rt.Iface, nextHop: rt.NextHop, dst: dst, metric: rt.Metric}
	if !ok {
		e = cell{dst: dst, metric: noRoute}
	}
	if (c.n+1)*4 > len(c.cells)*3 {
		c.grow()
	}
	c.put(e)
	return rt, ok
}

// put files a cell for an absent destination.
func (c *Cache) put(e cell) {
	mask := uint32(len(c.cells) - 1)
	i := c.home(e.dst)
	for !c.cells[i].empty() {
		i = (i + 1) & mask
	}
	c.cells[i] = e
	c.n++
}

// grow doubles the table (from 8 cells) and re-files every cell.
func (c *Cache) grow() {
	old := c.cells
	size := max(2*len(old), 8)
	c.cells = make([]cell, size)
	c.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	c.n = 0
	for _, e := range old {
		if !e.empty() {
			c.put(e)
		}
	}
}

// Router returns the underlying unicast router, for callers that need the
// raw interface (e.g. to register OnChange listeners).
func (c *Cache) Router() unicast.Router { return c.uni }
