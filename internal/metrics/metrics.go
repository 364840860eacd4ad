// Package metrics accumulates the protocol-side half of the paper's
// overhead ledger (§1.2): per-router state counts and per-protocol control
// message counts. The traffic half (per-link data/control packets) lives in
// netsim.Stats; experiment harnesses combine both into the tables in
// EXPERIMENTS.md.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Counters is a named-counter bag for one router or one protocol instance.
// The simulator is single-threaded, so plain map access suffices.
type Counters struct {
	m map[string]int64
}

// New returns an empty counter bag.
func New() *Counters { return &Counters{m: map[string]int64{}} }

// Add increments a named counter.
func (c *Counters) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.m[name] += delta
}

// Inc increments a named counter by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Get returns a counter's value (0 if never touched).
func (c *Counters) Get(name string) int64 {
	if c == nil {
		return 0
	}
	return c.m[name]
}

// Names returns all counter names in sorted order.
func (c *Counters) Names() []string {
	if c == nil {
		return nil
	}
	out := make([]string, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Reset zeroes every counter. Benchmark harnesses call it at the start of a
// measured window so counters cover the same span as netsim.Stats.Reset().
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	clear(c.m)
}

// Merge adds other's counters into c.
func (c *Counters) Merge(other *Counters) {
	if c == nil || other == nil {
		return
	}
	for k, v := range other.m {
		c.m[k] += v
	}
}

// String renders "name=value" pairs sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	for i, name := range c.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, c.m[name])
	}
	return b.String()
}

// Canonical counter names shared across the protocol implementations so the
// comparison harness can sum like-for-like.
const (
	CtrlJoinPrune = "ctrl.joinprune" // PIM join/prune messages sent
	CtrlRegister  = "ctrl.register"  // PIM registers sent
	CtrlRPReach   = "ctrl.rpreach"   // RP reachability messages sent
	CtrlQuery     = "ctrl.query"     // PIM neighbor queries sent
	CtrlGraft     = "ctrl.graft"     // dense-mode grafts sent
	CtrlAssert    = "ctrl.assert"    // dense-mode asserts sent
	CtrlMemberAd  = "ctrl.memberad"  // dense-mode member-existence messages sent (§4 interop)
	CtrlPrune     = "ctrl.prune"     // dense-mode/DVMRP prunes sent
	CtrlLSA       = "ctrl.lsa"       // MOSPF membership LSAs sent
	CtrlCBTJoin   = "ctrl.cbtjoin"   // CBT join requests sent
	CtrlCBTAck    = "ctrl.cbtack"    // CBT join acks sent
	CtrlCBTEcho   = "ctrl.cbtecho"   // CBT keepalive echoes sent
	DataForwarded = "data.forwarded" // data packets forwarded (per-router)
	DataDelivered = "data.delivered" // data packets delivered to local members
	DataDropped   = "data.rpfdrop"   // data packets failing the iif check
	DataNoState   = "data.nostate"   // data packets dropped for lack of state
	SPFRuns       = "proc.spf"       // Dijkstra runs (MOSPF processing cost)
)
