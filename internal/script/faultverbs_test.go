package script

import (
	"strings"
	"testing"

	"pim/internal/netsim"
	"pim/internal/telemetry"
)

// mustParse/mustRunOK are tiny local helpers for the fault-verb scenarios.
func mustParse(t *testing.T, src string) *Script {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRunOK(t *testing.T, src string) {
	t.Helper()
	s := mustParse(t, src)
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

// TestReorderVerbScript puts a dense-mode chain under heavy reordering —
// control and data alike — for most of the run. Reordering delays frames
// but never drops them, so delivery must stay complete, and the §3.8
// invariants must hold throughout (asserted via the recorded-verdict form,
// which auto-attaches the checker).
func TestReorderVerbScript(t *testing.T) {
	mustRunOK(t, `
topo edges 0-1 1-2
unicast oracle
group G0
protocol pim-dm timers=fast
host src r0
host recv r2
at 1s join recv G0
at 3s send src G0 count=60 every=1s
at 5s reorder all 50ms
at 40s reorder 1 200ms control
at 70s reorder all 0
at 70s reorder 1 0
run 120s
expect recv received G0 >= 60
expect violations == 0
`)
}

// TestFaultSeedChangesLossRealization pins that the faultseed statement
// reaches the injector: the same lossy script under different seeds drops a
// different set of packets, while the same seed reproduces bit-identically.
func TestFaultSeedChangesLossRealization(t *testing.T) {
	run := func(seed string) int {
		s := mustParse(t, `
topo edges 0-1 1-2
unicast oracle
group G0 rp r1
faultseed `+seed+`
protocol pim-sm
host src r0
host recv r2
at 1s join recv G0
at 2s loss all 0.5 data
at 3s send src G0 count=60 every=100ms
run 60s
`)
		res, err := s.RunWith(RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Delivered["recv/G0"]
	}
	a1, a2, b := run("1"), run("1"), run("2")
	if a1 != a2 {
		t.Fatalf("same faultseed delivered %d then %d", a1, a2)
	}
	if a1 == b {
		t.Fatalf("faultseed 1 and 2 delivered identically (%d) — seed not reaching the injector", a1)
	}
}

// TestCrashDuringGraftRetransmission covers the injector edge the search
// sweeps: a router fail-stops while it holds an armed graft-retransmission
// timer (its graft was sent upstream into total control loss and never
// acked). The crash must cancel the pending state cleanly — no timer from
// the dead epoch may fire after the restart — and once the loss clears the
// restarted router re-grafts from refresh alone.
func TestCrashDuringGraftRetransmission(t *testing.T) {
	s := mustParse(t, `
topo edges 0-1 1-2
unicast oracle
group G0
protocol pim-dm timers=fast
host src r0
host recv r2
at 3s send src G0 count=110 every=1s
# r2 prunes (no members), then joins into a control blackout: its graft and
# every retransmission (3s doubling retry) vanish upstream.
at 35s loss 1 1.0 control
at 40s join recv G0
# Crash lands between the first retry and the next: the graft is in flight,
# the retransmission timer armed.
at 44s crash r2
at 50s loss 1 0 control
at 60s restart r2
run 180s
expect recv received G0 >= 10
expect violations == 0
`)
	res, err := s.RunWith(RunConfig{Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}

// TestRestartOnTimerTick covers the other swept edge: a restart scheduled
// on the exact instant the protocol's periodic clocks tick (engines start
// at unicast convergence C; with timers=fast the 10s hellos and 20s
// join/prune refresh land on C+10k; script time t maps to C+2+t, so t=38s
// is the C+40s tick). Any timer the dead epoch left on that tick fires
// before the restart event — the epoch guard must suppress it, and the
// checker proves no stale fire leaks through.
func TestRestartOnTimerTick(t *testing.T) {
	s := mustParse(t, `
topo edges 0-1 1-2
unicast oracle
group G0 rp r1
protocol pim-sm timers=fast
host src r0
host recv r2
at 1s join recv G0
at 3s send src G0 count=110 every=1s
at 17s crash r1
at 38s restart r1
run 180s
expect recv received G0 >= 40
expect violations == 0
`)
	res, err := s.RunWith(RunConfig{Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}

// TestExpectViolationsAutoChecks pins the recorded-verdict contract: a
// script declaring `expect violations` attaches the checker whatever the
// RunConfig, so the expectation always has a checker to read.
func TestExpectViolationsAutoChecks(t *testing.T) {
	s := mustParse(t, `
topo edges 0-1
unicast oracle
group G0 rp r1
protocol pim-sm
host src r0
host recv r1
at 1s join recv G0
at 2s send src G0 count=5
run 30s
expect recv received G0 == 5
expect violations == 0
`)
	if !s.ExpectsViolations() {
		t.Fatal("ExpectsViolations = false for a script with the expectation")
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

// TestFailFastRunCleanScenario: arming fail-fast on a violation-free
// scenario must not disturb the run.
func TestFailFastRunCleanScenario(t *testing.T) {
	s := mustParse(t, `
topo edges 0-1 1-2
unicast oracle
group G0 rp r1
protocol pim-sm
host src r0
host recv r2
at 1s join recv G0
at 2s send src G0 count=5
run 30s
expect recv received G0 == 5
`)
	res, err := s.RunWith(RunConfig{FailFast: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}

// TestCheckedRunsReportForgedViolation is what fails when a checked run has no
// checker on its bus. No script can break a §3.8 contract on purpose — the
// engines' own guards hold — so the test forges one: the first genuine timer
// fire is republished under a dead epoch. A checked run must report exactly
// that violation and finish; a fail-fast run must also halt there, with most
// of the scripted traffic unsent. (scenario.TestObservationLanes does the
// same to the lanes a checked run without a Bus is given.)
func TestCheckedRunsReportForgedViolation(t *testing.T) {
	run := func(cfg RunConfig) *Result {
		cfg.Bus = telemetry.NewBus()
		forged := false
		cfg.Bus.Subscribe(func(ev telemetry.Event) {
			if ev.Kind == telemetry.TimerFire && !forged && ev.At > 20*netsim.Second {
				forged = true
				ev.Epoch++
				cfg.Bus.Publish(ev)
			}
		})
		res, err := mustParse(t, `
topo edges 0-1 1-2
unicast oracle
group G0 rp r1
protocol pim-sm timers=fast
host src r0
host recv r2
at 1s join recv G0
at 3s send src G0 count=100 every=1s
run 120s
`).RunWith(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 1 || !strings.Contains(res.Violations[0].Msg, "dead epoch") {
			t.Fatalf("%+v: violations = %v, want the one forged stale timer", cfg, res.Violations)
		}
		return res
	}
	if got := run(RunConfig{Checked: true}).Delivered["recv/G0"]; got != 100 {
		t.Errorf("checked run delivered %d of 100: a violation must not stop it", got)
	}
	if got := run(RunConfig{FailFast: true}).Delivered["recv/G0"]; got == 0 || got > 30 {
		t.Errorf("fail-fast run delivered %d of 100: want a halt at the violation, about 20 s in", got)
	}
}

// TestNewVerbErrors extends the fault-verb error cases to the search verbs.
func TestNewVerbErrors(t *testing.T) {
	cases := []string{
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s reorder 9 10ms\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s reorder all 5ms bogus\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s reorder all\n",
		"topo edges 0-1\nfaultseed nope\ngroup G0 rp r1\nprotocol pim-sm\nrun 1s\n",
		"topo edges 0-1\nfaultseed 1 2\ngroup G0 rp r1\nprotocol pim-sm\nrun 1s\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm timers=slow\nrun 1s\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nrun 1s\nexpect violations >= x\n",
	}
	for _, src := range cases {
		s, err := Parse(src)
		if err != nil {
			continue
		}
		if _, err := s.RunWith(RunConfig{}); err == nil {
			t.Errorf("script %q ran without error", src)
		}
	}
}

// TestExpectViolationsNeedsChecker: a script that asserts on violations gets
// the invariant checker whatever RunConfig asked for — on the mixed
// sparse/dense deployment, through a border crash, too — so the assertion
// measures instead of passing silently.
func TestExpectViolationsNeedsChecker(t *testing.T) {
	s := mustParse(t, `
topo edges 0-1 1-2
group G0 rp r0
protocol pim-sm dense=2
at 1s crash r1
at 5s restart r1
run 10s
expect violations == 0
expect violations >= 1
`)
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "violations = 0, want >= 1") {
		t.Fatalf("failures = %v, want only the >= 1 expectation measured and failed", res.Failures)
	}
}
