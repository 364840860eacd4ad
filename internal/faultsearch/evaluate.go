package faultsearch

import (
	"fmt"
	"strings"

	"pim/internal/script"
)

// VerdictKind classifies a schedule's outcome.
type VerdictKind int

const (
	// VerdictPass: every invariant held and every delivery oracle met.
	VerdictPass VerdictKind = iota
	// VerdictInvariant: the §3.8 checker flagged a violation (fail-fast
	// halted the run at the violation instant).
	VerdictInvariant
	// VerdictDelivery: invariants held but an end-to-end oracle failed.
	VerdictDelivery
)

func (k VerdictKind) String() string {
	switch k {
	case VerdictPass:
		return "pass"
	case VerdictInvariant:
		return "invariant"
	case VerdictDelivery:
		return "delivery"
	}
	return fmt.Sprintf("verdict(%d)", int(k))
}

// Verdict is the outcome of evaluating one schedule.
type Verdict struct {
	Kind VerdictKind
	// Signature classifies the failure for dedupe and for minimization
	// equivalence: the violated contract (stale-timer, dirty-restart, rpf,
	// negcache) for invariant verdicts, the failed oracle set for delivery
	// verdicts. Empty for passes.
	Signature string
	// Detail is the first violation (with simulated time and router) or the
	// failed expectations, for humans.
	Detail string
	// FailedOracles lists the template oracles that failed (delivery only).
	FailedOracles []Oracle
}

// Violating reports whether the schedule found anything.
func (v Verdict) Violating() bool { return v.Kind != VerdictPass }

// Label is the dedupe key component naming what broke.
func (v Verdict) Label() string {
	if v.Kind == VerdictPass {
		return "pass"
	}
	return v.Kind.String() + ":" + v.Signature
}

// SameBug reports whether two verdicts witness the same failure — the
// minimizer's equivalence: a shrunk schedule counts as reproducing only if
// it fails the same way.
func (v Verdict) SameBug(w Verdict) bool {
	return v.Kind == w.Kind && v.Signature == w.Signature
}

// classifyViolation maps a checker message to its contract name.
func classifyViolation(msg string) string {
	switch {
	case strings.Contains(msg, "dead epoch"):
		return "stale-timer"
	case strings.Contains(msg, "restarted router holds"):
		return "dirty-restart"
	case strings.Contains(msg, "fails RPF"):
		return "rpf"
	case strings.Contains(msg, "negative-cached"):
		return "negcache"
	}
	return "other"
}

// Evaluate renders and runs one schedule under the invariant checker in
// fail-fast mode and returns its verdict. A run executes on one scheduler
// regardless of GOMAXPROCS, so the verdict is a pure function of the
// schedule.
func Evaluate(s Schedule) (Verdict, error) {
	src, err := s.Render()
	if err != nil {
		return Verdict{}, err
	}
	sc, err := script.Parse(src)
	if err != nil {
		return Verdict{}, fmt.Errorf("faultsearch: rendered script does not parse: %w\n%s", err, src)
	}
	res, err := sc.RunWith(script.RunConfig{Checked: true, FailFast: true})
	if err != nil {
		return Verdict{}, fmt.Errorf("faultsearch: schedule %v failed to run: %w", s, err)
	}
	if vs := res.Violations; len(vs) > 0 {
		// Fail-fast guarantees exactly one recorded violation — the first.
		return Verdict{
			Kind:      VerdictInvariant,
			Signature: classifyViolation(vs[0].Msg),
			Detail:    vs[0].String(),
		}, nil
	}
	if !res.OK() {
		t, err := templateByName(s.Topo)
		if err != nil {
			return Verdict{}, err
		}
		var failed []Oracle
		var names []string
		for _, o := range t.Oracles {
			if res.Delivered[o.Host+"/"+o.Group] < o.Min {
				failed = append(failed, o)
				names = append(names, fmt.Sprintf("%s/%s=%d<%d", o.Host, o.Group,
					res.Delivered[o.Host+"/"+o.Group], o.Min))
			}
		}
		if len(failed) == 0 {
			// An expectation failed that the oracle table cannot explain:
			// a harness bug, not a protocol bug.
			return Verdict{}, fmt.Errorf("faultsearch: schedule %v failed %v without a failing oracle", s, res.Failures)
		}
		return Verdict{
			Kind:          VerdictDelivery,
			Signature:     strings.Join(oracleNames(failed), "+"),
			Detail:        strings.Join(names, ", "),
			FailedOracles: failed,
		}, nil
	}
	return Verdict{Kind: VerdictPass}, nil
}

func oracleNames(os []Oracle) []string {
	out := make([]string, len(os))
	for i, o := range os {
		out[i] = o.Host + "/" + o.Group
	}
	return out
}
