package faultsearch

import (
	"reflect"
	"strings"
	"testing"

	"pim/internal/netsim"
	"pim/internal/scenario"
	"pim/internal/script"
)

// TestBaselinesPass is the search's fairness validation: the zero-clause
// schedule must pass for every topology×protocol cell, otherwise "delivery
// oracle failed" verdicts would blame faults for a template defect.
func TestBaselinesPass(t *testing.T) {
	for _, tpl := range Templates {
		for _, p := range scenario.ProtocolNames() {
			v, err := Evaluate(Schedule{Topo: tpl.Name, Proto: p, Seed: 1})
			if err != nil {
				t.Errorf("%s/%s: %v", tpl.Name, p, err)
				continue
			}
			if v.Violating() {
				t.Errorf("%s/%s baseline violates: %s (%s)", tpl.Name, p, v.Label(), v.Detail)
			}
		}
	}
}

func TestTimerTickGrid(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{8, 8}, {9, 8}, {17, 8}, {18, 18}, {20, 18}, {38, 38}, {40, 38}, {95, 88},
	} {
		if got := timerTick(c.in); got != c.want {
			t.Errorf("timerTick(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// knownBad is a deterministic violating input for the machinery tests: a
// cut of the chain's only path whose heal lands beyond the scripted run, so
// both delivery oracles necessarily fail. The search generator never emits
// such a schedule (every clause clears by FaultDeadline — the fairness
// contract), which is exactly why it stays violating no matter how correct
// the protocols become. The sweep's original find — the flood-and-prune
// restart black hole — is fixed and lives on as flipped recovery pins under
// scenarios/found/.
func knownBad() (Schedule, Verdict) {
	s := Schedule{
		Topo: "chain3", Proto: "pim-dm", Seed: 7,
		Clauses: []Clause{{Kind: KindCut, Edge: 0, Start: 17, Stop: 300}},
	}
	return s, Verdict{Kind: VerdictDelivery, Signature: "recv/G0+probe/G1"}
}

func TestEvaluateFindsKnownBad(t *testing.T) {
	s, want := knownBad()
	v, err := Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	if !v.SameBug(want) {
		t.Fatalf("verdict %s (%s), want %s", v.Label(), v.Detail, want.Label())
	}
}

// TestMinimizeDropsIrrelevantClauses seeds the known-bad cut with two
// bystander clauses and checks the minimizer strips the schedule back down
// to the single cut clause, shrinks its outage, and leaves the caller's
// schedule untouched.
func TestMinimizeDropsIrrelevantClauses(t *testing.T) {
	bad, want := knownBad()
	noisy := bad
	noisy.Clauses = []Clause{
		{Kind: KindReorder, Edge: 0, Start: 10, Stop: 30, Window: 20 * netsim.Millisecond, Class: ClassAll},
		bad.Clauses[0],
		{Kind: KindLoss, Edge: 1, Start: 70, Stop: 80, Rate: 0.2, Class: ClassData},
	}
	orig := append([]Clause{}, noisy.Clauses...)
	min, mv, evals, err := Minimize(noisy, want, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Clauses) != 1 || min.Clauses[0].Kind != KindCut {
		t.Fatalf("minimized to %v, want the lone cut clause", min)
	}
	if got := min.Clauses[0]; got.Stop-got.Start >= bad.Clauses[0].Stop-bad.Clauses[0].Start {
		t.Errorf("timing bisect did not shrink the outage: %v", got)
	}
	if !reflect.DeepEqual(noisy.Clauses, orig) {
		t.Errorf("Minimize mutated its input: %v", noisy.Clauses)
	}
	if !mv.SameBug(want) {
		t.Errorf("minimized verdict %s, want same bug as %s", mv.Label(), want.Label())
	}
	if evals < 3 {
		t.Errorf("suspiciously few evals: %d", evals)
	}
	// The minimized schedule must reproduce on its own.
	v, err := Evaluate(min)
	if err != nil {
		t.Fatal(err)
	}
	if !v.SameBug(want) {
		t.Fatalf("minimized schedule verdict %s, want %s", v.Label(), want.Label())
	}
}

// TestSearchReproducible pins the acceptance criterion: a fixed-seed search
// explores the same schedules, finds the same violations, and emits the
// same minimized output across runs and across worker counts.
func TestSearchReproducible(t *testing.T) {
	cfg := Config{Seed: 3, Budget: 30, Workers: 1,
		Topos: []string{"chain3"}, Protos: []string{"pim-dm", "pim-sm"}}
	base, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		rep, err := Search(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, base) {
			t.Fatalf("workers=%d report diverged:\n%+v\nvs\n%+v", workers, rep, base)
		}
	}
}

// TestPlanCoversAllCells: the interleaved plan touches every cell before
// exhausting any one cell's sweep, so small budgets still test every engine;
// a protocol the recipe does not know — the retired pim-sm-never — is refused
// by name.
func TestPlanCoversAllCells(t *testing.T) {
	if _, err := (Config{Protos: []string{"pim-sm-never"}}).Plan(); err == nil || !strings.Contains(err.Error(), "pim-sm-never") {
		t.Errorf("Plan with a retired protocol name: %v, want an error naming it", err)
	}
	cfg := Config{Seed: 1, Budget: len(Templates) * len(scenario.ProtocolNames())}
	plan, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != cfg.Budget {
		t.Fatalf("plan length %d, want %d", len(plan), cfg.Budget)
	}
	seen := map[string]bool{}
	for _, s := range plan {
		seen[s.Topo+"/"+s.Proto] = true
	}
	if len(seen) != cfg.Budget {
		t.Fatalf("first %d trials cover %d cells, want all %d", cfg.Budget, len(seen), cfg.Budget)
	}
}

// TestRenderFoundRoundTrips: the emitted counterexample parses, declares
// its recorded verdict, and passes — i.e. the bug reproduces through the
// script runner exactly as the search saw it.
func TestRenderFoundRoundTrips(t *testing.T) {
	s, want := knownBad()
	v, err := Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	if !v.SameBug(want) {
		t.Fatalf("verdict %s, want %s", v.Label(), want.Label())
	}
	src, err := RenderFound(s, v, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := script.Parse(src)
	if err != nil {
		t.Fatalf("rendered counterexample does not parse: %v\n%s", err, src)
	}
	res, err := sc.RunWith(script.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("recorded verdict did not reproduce: %v\n%s", res.Failures, src)
	}
}

// TestRenderFoundInvariantForm: an invariant verdict renders the violation
// expectation instead of delivery oracles.
func TestRenderFoundInvariantForm(t *testing.T) {
	s, _ := knownBad()
	src, err := RenderFound(s, Verdict{Kind: VerdictInvariant, Signature: "stale-timer",
		Detail: "t=1s r1: timer from dead epoch 0 fired in epoch 1"}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := script.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	if !sc.ExpectsViolations() {
		t.Fatalf("invariant-form counterexample lacks the violations expectation:\n%s", src)
	}
}
