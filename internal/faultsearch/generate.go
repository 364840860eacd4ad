package faultsearch

import (
	"math/rand"

	"pim/internal/netsim"
	"pim/internal/parallel"
)

// The sampled value ladders. Coarse grids keep the space enumerable-ish and
// make minimized schedules read naturally.
var (
	lossRates      = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	reorderWindows = []netsim.Time{20 * netsim.Millisecond, 50 * netsim.Millisecond,
		100 * netsim.Millisecond, 250 * netsim.Millisecond, 500 * netsim.Millisecond}
	classes = []Class{ClassAll, ClassControl, ClassData}
)

// timerTick returns the largest script time ≤ t that lands exactly on the
// fast-timer tick grid: engines start at unicast convergence C, script time
// x maps to C+2+x, and the fast deployment's hellos/refreshes fire on
// C+10k — so x ≡ 8 (mod 10).
func timerTick(t int) int {
	x := (t-8)/10*10 + 8
	if x > t {
		x -= 10
	}
	return x
}

// EnumerateSingles yields the deterministic single-clause sweep for one
// topology×protocol cell: every edge under full control loss, full data
// loss, heavy reordering, and a mid-run cut; every transit router crashed
// twice — once with the crash and restart swept onto the timer-tick grid
// (the restart lands on the same instant a refresh/hello fires), once
// deliberately off-grid — plus one flap per edge. This is the "enumerate"
// half of the search; Random is the sampling half.
func EnumerateSingles(topo, proto string, seed int64) []Schedule {
	t, err := templateByName(topo)
	if err != nil {
		return nil
	}
	mk := func(c Clause) Schedule {
		return Schedule{Topo: topo, Proto: proto, Seed: seed, Clauses: []Clause{c}}
	}
	var out []Schedule
	for e := 0; e < t.numEdges(); e++ {
		out = append(out,
			mk(Clause{Kind: KindLoss, Edge: e, Start: 20, Stop: 60, Rate: 1.0, Class: ClassControl}),
			mk(Clause{Kind: KindLoss, Edge: e, Start: 20, Stop: 60, Rate: 0.6, Class: ClassData}),
			mk(Clause{Kind: KindReorder, Edge: e, Start: 10, Stop: 90, Window: 250 * netsim.Millisecond, Class: ClassAll}),
			mk(Clause{Kind: KindCut, Edge: e, Start: 20, Stop: 45}),
			mk(Clause{Kind: KindFlap, Edge: e, Start: 20, Down: 2, Up: 2, Cycles: 3}),
		)
	}
	for _, r := range t.Transit {
		out = append(out,
			// Timer-aligned: crash and restart both on the C+10k grid.
			mk(Clause{Kind: KindCrash, Router: r, Start: timerTick(20), Stop: timerTick(40)}),
			// Off-grid: restart lands between ticks.
			mk(Clause{Kind: KindCrash, Router: r, Start: 17, Stop: 29}),
		)
	}
	return out
}

// Random draws one multi-clause schedule from rng. Clauses are deduped by
// scope (one knob setting per target) and every clause honors the fairness
// contract: active only inside [FaultWindowStart, FaultWindowEnd].
func Random(topo, proto string, seed int64, rng *rand.Rand) Schedule {
	t, err := templateByName(topo)
	if err != nil {
		panic(err)
	}
	s := Schedule{Topo: topo, Proto: proto, Seed: seed}
	n := 1 + rng.Intn(3)
	seen := map[string]bool{}
	for len(s.Clauses) < n {
		c := randomClause(t, rng)
		if seen[c.scope()] {
			continue
		}
		seen[c.scope()] = true
		s.Clauses = append(s.Clauses, c)
	}
	return s
}

func randomClause(t Template, rng *rand.Rand) Clause {
	// Window on the 1s grid inside the fault window.
	span := FaultWindowEnd - FaultWindowStart
	window := func(minLen, maxLen int) (int, int) {
		length := minLen + rng.Intn(maxLen-minLen+1)
		start := FaultWindowStart + rng.Intn(span-length+1)
		return start, start + length
	}
	edge := func() int { return rng.Intn(t.numEdges()) }
	edgeOrAll := func() int {
		if rng.Intn(4) == 0 {
			return -1
		}
		return edge()
	}
	switch rng.Intn(5) {
	case 0:
		start, stop := window(5, 60)
		return Clause{Kind: KindLoss, Edge: edgeOrAll(), Start: start, Stop: stop,
			Rate: lossRates[rng.Intn(len(lossRates))], Class: classes[rng.Intn(len(classes))]}
	case 1:
		start, stop := window(10, 80)
		return Clause{Kind: KindReorder, Edge: edgeOrAll(), Start: start, Stop: stop,
			Window: reorderWindows[rng.Intn(len(reorderWindows))], Class: classes[rng.Intn(len(classes))]}
	case 2:
		r := t.Transit[rng.Intn(len(t.Transit))]
		start, stop := window(5, 20)
		if stop > 95 {
			stop = 95
		}
		// Half the crash schedules sweep onto the protocol timer grid: the
		// search's whole point is restarts colliding with timer fires.
		if rng.Intn(2) == 0 {
			if s2 := timerTick(stop); s2 > start {
				stop = s2
			}
			if s1 := timerTick(start); s1 >= FaultWindowStart && s1 < stop {
				start = s1
			}
		}
		return Clause{Kind: KindCrash, Router: r, Start: start, Stop: stop}
	case 3:
		start, stop := window(2, 25)
		return Clause{Kind: KindCut, Edge: edge(), Start: start, Stop: stop}
	default:
		down := 1 + rng.Intn(5)
		up := 1 + rng.Intn(5)
		cycles := 1 + rng.Intn(3)
		latest := FaultWindowEnd - cycles*(down+up)
		start := FaultWindowStart + rng.Intn(latest-FaultWindowStart+1)
		return Clause{Kind: KindFlap, Edge: edge(), Start: start, Down: down, Up: up, Cycles: cycles}
	}
}

// trialSeed derives the faultseed for one trial: a small positive number so
// the rendered `faultseed` line stays readable.
func trialSeed(searchSeed int64, trial int) int64 {
	return int64(uint64(parallel.DeriveSeed(searchSeed, 0xfa17, int64(trial))) % 1_000_000)
}
