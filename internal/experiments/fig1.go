package experiments

import (
	"fmt"

	"pim/internal/netsim"
	"pim/internal/script"
)

// Figure 1 topology (§1.3): three domains communicating across an internet
// backbone, one group member in each domain.
//
//	backbone ring: 0 - 1 - 2 - 3 - 0, chord 0 - 2   (edges 0..4)
//	domain A: border 4 (at 0), interior 5   <- member + source; RP / CBT core at 4
//	domain B: border 6 (at 1), interior 7   <- member (+ source Y in 1c)
//	domain C: border 8 (at 2), interior 9   <- member (+ source Z in 1c)
const fig1Edges = "0-1:2 1-2:2 2-3:2 3-0:2 0-2:3 0-4:1 4-5:1 1-6:1 6-7:1 2-8:1 8-9:1"

// fig1Members are the interior routers the member hosts sit behind.
var fig1Members = []int{5, 7, 9}

// fig1Script writes one Figure 1 run as .pim text: proto deployed with its RP
// (or core) in domain A, every member joined, a 10 s settle, then each of
// senders sending one packet a second for dur.
func fig1Script(proto Protocol, prune netsim.Time, senders []int, dur netsim.Time) string {
	// Figure 1 compares the tree-building protocols; MOSPF has no place in it.
	if proto == MOSPF {
		panic("experiments: protocol not applicable to figure 1: " + string(proto))
	}
	var t pimText
	t.line("topo edges %s\nunicast oracle\ngroup G0 rp r4", fig1Edges)
	for _, r := range fig1Members {
		t.host(r)
	}
	t.protocol(proto, prune)
	for _, r := range fig1Members {
		t.line("at 0 join h%d G0", r)
	}
	t.line("run 10s")
	for _, r := range senders {
		t.line("at 0 send h%d G0 count=%d every=1s size=128", r, dur/netsim.Second+1)
	}
	t.line("run %s", script.FormatDuration(dur))
	return t.String()
}

// Fig1Result reports the data-plane footprint of one protocol on the
// three-domain scenario.
type Fig1Result struct {
	Protocol Protocol
	// BackboneLinksTouched counts backbone links (of 5) that carried data.
	BackboneLinksTouched int
	// TotalLinksTouched counts all graph links that carried data.
	TotalLinksTouched int
	// DataPackets is total data link-crossings during the measured phase.
	DataPackets int64
	// BackboneDataPackets sums data crossings over the five backbone links
	// — the wide-area cost the paper's Figure 1 argues about.
	BackboneDataPackets int64
	// MaxLinkData is the busiest graph link's data packet count.
	MaxLinkData int64
	// Delivered sums member host receptions.
	Delivered int
	// MeanDelay is the average sender→member one-way delay, the Figure 1(c)
	// "packets from Y to Z will not travel via the shortest path" metric.
	MeanDelay netsim.Time
}

// RunFig1Broadcast reproduces Figure 1(b)'s point: a single source in
// domain A sending to three sparse members. Dense-mode protocols
// periodically re-broadcast across the whole internet when prunes expire;
// sparse-mode trees touch only member paths. The source sends for 4 prune
// lifetimes so dense-mode grow-back shows up in the measured phase.
func RunFig1Broadcast(proto Protocol, pruneLifetime netsim.Time) Fig1Result {
	res := runCell(fig1Script(proto, pruneLifetime, []int{5}, 4*pruneLifetime), script.RunConfig{})
	return fig1Fold(proto, res)
}

// RunFig1Concentration reproduces Figure 1(c)'s point: sources Y (domain B)
// and Z (domain C) both send; with a shared tree rooted in domain A all
// traffic funnels over the links toward the core, while SPTs route B↔C
// traffic over the shorter direct path.
func RunFig1Concentration(proto Protocol) Fig1Result {
	res := runCell(fig1Script(proto, 600*netsim.Second, []int{7, 9}, 60*netsim.Second),
		script.RunConfig{Captured: true})
	out := fig1Fold(proto, res)
	_, out.MeanDelay = meanDelay(res.Events, res.Runs[0].At)
	return out
}

// fig1Fold reads the measured run's data-plane footprint off the readings
// that close the settle and the sending.
func fig1Fold(proto Protocol, res *script.Result) Fig1Result {
	out := Fig1Result{Protocol: proto}
	settled, end := res.Runs[0], res.Runs[1]
	out.DataPackets = end.Totals.DataPackets - settled.Totals.DataPackets
	// Concentration over backbone/graph links only: member host LANs carry
	// every delivered packet under any protocol.
	for ei, n := range edgeWindow(settled, end) {
		out.MaxLinkData = max(out.MaxLinkData, n)
		if n > 0 {
			out.TotalLinksTouched++
		}
		if ei < 5 {
			out.BackboneDataPackets += n
			if n > 0 {
				out.BackboneLinksTouched++
			}
		}
	}
	for _, r := range fig1Members {
		out.Delivered += res.Delivered[fmt.Sprintf("h%d/G0", r)]
	}
	return out
}
