// Package metrics accumulates the protocol-side half of the paper's
// overhead ledger (§1.2): per-router state counts and per-protocol control
// message counts. The traffic half (per-link data/control packets) lives in
// netsim.Stats; experiment harnesses combine both into the tables in
// EXPERIMENTS.md.
package metrics

import (
	"fmt"
	"strings"
)

// ID names one counter. The set is closed and small, so a bag of counters is
// an array indexed by ID: counting a forwarded or dropped packet is one add,
// with no string hashed.
type ID uint8

// Canonical counters shared across the protocol implementations so the
// comparison harness can sum like-for-like. They are declared in the order of
// their names, which is what lets Names and String report sorted by name
// without sorting (TestIDsInNameOrder).
const (
	CtrlAssert    ID = iota // dense-mode asserts sent
	CtrlCBTAck              // CBT join acks sent
	CtrlCBTEcho             // CBT keepalive echoes sent
	CtrlCBTJoin             // CBT join requests sent
	CtrlGraft               // dense-mode grafts sent
	CtrlJoinPrune           // PIM join/prune messages sent
	CtrlLSA                 // MOSPF membership LSAs sent
	CtrlMemberAd            // dense-mode member-existence messages sent (§4 interop)
	CtrlPrune               // dense-mode/DVMRP prunes sent
	CtrlQuery               // PIM neighbor queries sent
	CtrlRegister            // PIM registers sent
	CtrlRPReach             // RP reachability messages sent
	DataDelivered           // data packets delivered to local members
	DataForwarded           // data packets forwarded (per-router)
	DataNoState             // data packets dropped for lack of state
	DataDropped             // data packets failing the iif check
	SPFRuns                 // Dijkstra runs (MOSPF processing cost)
	numIDs
)

var names = [numIDs]string{
	CtrlAssert:    "ctrl.assert",
	CtrlCBTAck:    "ctrl.cbtack",
	CtrlCBTEcho:   "ctrl.cbtecho",
	CtrlCBTJoin:   "ctrl.cbtjoin",
	CtrlGraft:     "ctrl.graft",
	CtrlJoinPrune: "ctrl.joinprune",
	CtrlLSA:       "ctrl.lsa",
	CtrlMemberAd:  "ctrl.memberad",
	CtrlPrune:     "ctrl.prune",
	CtrlQuery:     "ctrl.query",
	CtrlRegister:  "ctrl.register",
	CtrlRPReach:   "ctrl.rpreach",
	DataDelivered: "data.delivered",
	DataForwarded: "data.forwarded",
	DataNoState:   "data.nostate",
	DataDropped:   "data.rpfdrop",
	SPFRuns:       "proc.spf",
}

// Counters is the counter bag of one router or one protocol instance. The
// simulator is single-threaded, so plain array access suffices.
type Counters struct {
	v [numIDs]int64
	// touched has bit id set once counter id has been added to, by any
	// delta: Names, String and Merge report touched counters, not non-zero
	// ones.
	touched uint32
}

// New returns an empty counter bag.
func New() *Counters { return &Counters{} }

// Add increments a counter.
func (c *Counters) Add(id ID, delta int64) {
	if c == nil {
		return
	}
	c.v[id] += delta
	c.touched |= 1 << id
}

// Inc increments a counter by one.
func (c *Counters) Inc(id ID) { c.Add(id, 1) }

// Get returns a counter's value (0 if never touched).
func (c *Counters) Get(id ID) int64 {
	if c == nil {
		return 0
	}
	return c.v[id]
}

// Names returns the names of all touched counters in sorted order.
func (c *Counters) Names() []string {
	if c == nil {
		return nil
	}
	out := []string{}
	for id := ID(0); id < numIDs; id++ {
		if c.touched&(1<<id) != 0 {
			out = append(out, names[id])
		}
	}
	return out
}

// Reset zeroes every counter. Benchmark harnesses call it at the start of a
// measured window so counters cover the same span as netsim.Stats.Reset().
func (c *Counters) Reset() {
	if c != nil {
		*c = Counters{}
	}
}

// Merge adds other's counters into c.
func (c *Counters) Merge(other *Counters) {
	if c == nil || other == nil {
		return
	}
	for id, v := range other.v {
		c.v[id] += v
	}
	c.touched |= other.touched
}

// String renders "name=value" pairs sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	for id := ID(0); c != nil && id < numIDs; id++ {
		if c.touched&(1<<id) == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", names[id], c.v[id])
	}
	return b.String()
}
