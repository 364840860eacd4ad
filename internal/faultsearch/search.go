package faultsearch

import (
	"fmt"
	"math/rand"

	"pim/internal/parallel"
	"pim/internal/scenario"
)

// Config parameterizes one search run.
type Config struct {
	// Seed drives schedule generation and the per-trial fault seeds.
	Seed int64
	// Budget is the number of schedules to evaluate (the deterministic
	// single-clause sweep first, then random sampling).
	Budget int
	// MinimizeBudget caps Evaluate probes per minimization (default 48).
	MinimizeBudget int
	// Workers bounds trial-evaluation concurrency (0 = all CPUs). The
	// report is bit-identical at any worker count: trials are independent,
	// each writes only its own slot, and minimization runs sequentially in
	// trial order afterwards.
	Workers int
	// Topos/Protos restrict the sweep (default: all templates × every
	// recipe protocol, scenario.ProtocolNames).
	Topos, Protos []string
	// Log, when non-nil, receives progress lines.
	Log func(format string, a ...interface{})
}

// Found is one minimized counterexample.
type Found struct {
	Trial    int
	Original Schedule
	Minimal  Schedule
	Verdict  Verdict
	// MinEvals is the number of Evaluate probes minimization spent.
	MinEvals int
}

// Report is the outcome of a search run.
type Report struct {
	// Explored is the number of schedules evaluated by the sweep itself.
	Explored int
	// Violations counts violating schedules before dedupe.
	Violations int
	// Found holds one minimized counterexample per distinct bug signature
	// (topo × proto × verdict label), in trial order.
	Found []Found
	// MinimizeEvals is the total Evaluate probes spent minimizing.
	MinimizeEvals int
}

// MinScheduleSize is the clause count of the smallest minimized schedule,
// or 0 when nothing was found.
func (r Report) MinScheduleSize() int {
	min := 0
	for _, f := range r.Found {
		if n := len(f.Minimal.Clauses); min == 0 || n < min {
			min = n
		}
	}
	return min
}

func (c Config) logf(format string, a ...interface{}) {
	if c.Log != nil {
		c.Log(format, a...)
	}
}

// Plan materializes the deterministic trial list for a config: the
// single-clause enumeration over every topo×proto cell (round-robin across
// cells so a small budget still touches every engine), then random
// schedules, truncated or extended to exactly Budget entries. The plan is
// a pure function of the config — the reproducibility contract starts here.
func (c Config) Plan() ([]Schedule, error) {
	topos := c.Topos
	if len(topos) == 0 {
		for _, t := range Templates {
			topos = append(topos, t.Name)
		}
	}
	protos := c.Protos
	if len(protos) == 0 {
		protos = scenario.ProtocolNames()
	}
	type cell struct{ topo, proto string }
	var cells []cell
	for _, t := range topos {
		if _, err := templateByName(t); err != nil {
			return nil, err
		}
		for _, p := range protos {
			if err := checkProto(p); err != nil {
				return nil, err
			}
			cells = append(cells, cell{t, p})
		}
	}
	if len(cells) == 0 || c.Budget <= 0 {
		return nil, nil
	}
	// Interleave the per-cell single sweeps round-robin.
	singles := make([][]Schedule, len(cells))
	for i, cl := range cells {
		singles[i] = EnumerateSingles(cl.topo, cl.proto, 0)
	}
	var plan []Schedule
	for row := 0; ; row++ {
		any := false
		for i := range singles {
			if row < len(singles[i]) {
				plan = append(plan, singles[i][row])
				any = true
			}
		}
		if !any {
			break
		}
	}
	// Random tail (or truncation) to exactly Budget, each trial seeded from
	// its own index so the plan does not depend on evaluation order.
	if len(plan) > c.Budget {
		plan = plan[:c.Budget]
	}
	for t := len(plan); t < c.Budget; t++ {
		rng := rand.New(rand.NewSource(parallel.DeriveSeed(c.Seed, 0x5c4ed, int64(t))))
		cl := cells[rng.Intn(len(cells))]
		plan = append(plan, Random(cl.topo, cl.proto, trialSeed(c.Seed, t), rng))
	}
	// Stamp per-trial fault seeds on the singles too (trial index = plan
	// position, so seeds survive budget-only changes for the sweep prefix).
	for t := range plan {
		if plan[t].Seed == 0 {
			plan[t].Seed = trialSeed(c.Seed, t)
		}
	}
	return plan, nil
}

// Search runs the budgeted sweep: evaluate the plan (in parallel, slotted
// by trial), then minimize each violating schedule sequentially in trial
// order, deduping by bug signature. The report is bit-identical across
// runs and across worker counts for a fixed config.
func Search(cfg Config) (Report, error) {
	if cfg.MinimizeBudget <= 0 {
		cfg.MinimizeBudget = 48
	}
	plan, err := cfg.Plan()
	if err != nil {
		return Report{}, err
	}
	rep := Report{Explored: len(plan)}
	verdicts := make([]Verdict, len(plan))
	errs := make([]error, len(plan))
	parallel.For(len(plan), cfg.Workers, func(i int) {
		verdicts[i], errs[i] = Evaluate(plan[i])
	})
	for _, err := range errs {
		if err != nil {
			return rep, err
		}
	}
	seen := map[string]bool{}
	for t, v := range verdicts {
		if !v.Violating() {
			continue
		}
		rep.Violations++
		key := plan[t].Topo + "|" + plan[t].Proto + "|" + v.Label()
		if seen[key] {
			continue
		}
		seen[key] = true
		cfg.logf("trial %d: %s on %s/%s (%s) — minimizing", t, v.Label(),
			plan[t].Topo, plan[t].Proto, v.Detail)
		min, mv, evals, err := Minimize(plan[t], v, cfg.MinimizeBudget)
		if err != nil {
			return rep, fmt.Errorf("trial %d: %w", t, err)
		}
		rep.MinimizeEvals += evals
		rep.Found = append(rep.Found, Found{
			Trial: t, Original: plan[t], Minimal: min, Verdict: mv, MinEvals: evals,
		})
		cfg.logf("trial %d: minimized %d clause(s) → %d, %d evals", t,
			len(plan[t].Clauses), len(min.Clauses), evals)
	}
	return rep, nil
}
