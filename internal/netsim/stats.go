package netsim

import "pim/internal/packet"

// The paper (§1, §1.2) measures protocol overhead in three currencies:
// state, control message processing, and data packet processing, "required
// across the entire network". Stats accumulates the message-processing side
// of that ledger: per-link and aggregate counts of control and data packets.
// State counts come from the protocol implementations themselves (see
// internal/metrics.Collector).

// DropReason classifies why a frame was not delivered. The fault-injection
// experiments report drop ledgers by name, so the reasons are exported and
// printable.
type DropReason int

// Drop reasons.
const (
	DropIfaceDown DropReason = iota
	DropLinkDown
	DropMalformed
	DropNoHandler
	DropInjectedLoss
	NumDropReasons
)

// dropNames indexes DropReason to its report label.
var dropNames = [NumDropReasons]string{
	DropIfaceDown:    "dropIfaceDown",
	DropLinkDown:     "dropLinkDown",
	DropMalformed:    "dropMalformed",
	DropNoHandler:    "dropNoHandler",
	DropInjectedLoss: "dropInjectedLoss",
}

// String names the drop reason for reports and test failures.
func (d DropReason) String() string {
	if d < 0 || d >= NumDropReasons {
		return "dropUnknown"
	}
	return dropNames[d]
}

// LinkStats counts traffic over a single link.
type LinkStats struct {
	DataPackets    int64
	ControlPackets int64
	DataBytes      int64
	ControlBytes   int64
}

// Stats aggregates network-wide traffic counters.
type Stats struct {
	PerLink []LinkStats // indexed by Link.ID
	Totals  LinkStats
	// Received counts packets delivered to a handler: a frame its node has
	// no handler for is a DropNoHandler, not a receipt.
	Received int64
	Drops    [NumDropReasons]int64
}

// IsData classifies a protocol number as data-plane. Application payloads
// (UDP) and register-encapsulated data count as data; everything else is
// control. This is the classification the paper's overhead discussion uses:
// registers carry data toward the RP, joins/prunes/reports are control.
func IsData(proto byte) bool {
	return proto == packet.ProtoUDP || proto == packet.ProtoPIMData
}

// Transmit records a packet entering a link.
func (s *Stats) Transmit(l *Link, pkt *packet.Packet) {
	for len(s.PerLink) <= l.ID {
		s.PerLink = append(s.PerLink, LinkStats{})
	}
	ls := &s.PerLink[l.ID]
	n := int64(pkt.Len())
	if IsData(pkt.Protocol) {
		ls.DataPackets++
		ls.DataBytes += n
		s.Totals.DataPackets++
		s.Totals.DataBytes += n
	} else {
		ls.ControlPackets++
		ls.ControlBytes += n
		s.Totals.ControlPackets++
		s.Totals.ControlBytes += n
	}
}

// Drop records a dropped frame.
func (s *Stats) Drop(reason DropReason) { s.Drops[reason]++ }

// Dropped returns the total frames dropped for any reason.
func (s *Stats) Dropped() int64 {
	var t int64
	for _, d := range s.Drops {
		t += d
	}
	return t
}

// DropsByName returns the nonzero drop counters labeled by reason name, the
// form experiment ledgers and failure messages report.
func (s *Stats) DropsByName() map[string]int64 {
	out := map[string]int64{}
	for r, n := range s.Drops {
		if n != 0 {
			out[DropReason(r).String()] = n
		}
	}
	return out
}

// LinksCarryingData returns how many links carried at least one data packet
// — the paper's measure of how widely a distribution scheme touches the
// network (sparse-mode efficiency, §1.2).
func (s *Stats) LinksCarryingData() int {
	c := 0
	for _, ls := range s.PerLink {
		if ls.DataPackets > 0 {
			c++
		}
	}
	return c
}

// MaxLinkDataPackets returns the largest per-link data packet count — the
// traffic-concentration measure of Figure 2(b).
func (s *Stats) MaxLinkDataPackets() int64 {
	var max int64
	for _, ls := range s.PerLink {
		if ls.DataPackets > max {
			max = ls.DataPackets
		}
	}
	return max
}

// Reset zeroes all counters (used between measurement phases so warm-up
// traffic is excluded).
func (s *Stats) Reset() { *s = Stats{} }
