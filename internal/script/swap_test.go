package script

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"pim/internal/scenario"
)

// protocolSwap rewrites a parsed script to run under another protocol: its
// `protocol` line names proto and keeps the operands that protocol's recipe
// accepts (dense= is pim-sm's alone), a group that declares no RP gets r0
// when proto anchors groups at one, and the `expect` lines go. The golden
// section is not part of the body, so it goes too.
func protocolSwap(s *Script, proto string) string {
	lines := strings.Split(s.Body(), "\n")
	anchored := scenario.Recipe{Protocol: proto}.DeclaresRP()
	for _, st := range s.stmts {
		ln := &lines[st.line-1]
		switch st.row.name {
		case "expect":
			*ln = ""
		case "group":
			if len(st.args) == 1 && anchored {
				*ln = "group " + st.args[0] + " rp r0"
			}
		case "protocol":
			f := append([]string{"protocol", proto}, st.args[1:]...)
			for _, k := range st.keys {
				if k != "dense" || proto == "pim-sm" {
					f = append(f, k+"="+st.kv[k])
				}
			}
			*ln = strings.Join(f, " ")
		}
	}
	return strings.Join(lines, "\n")
}

// faultFree reports whether every timed action of the script is a join, a
// leave or a send: no link, loss, reorder, crash or partition fault.
func faultFree(s *Script) bool {
	for _, st := range s.stmts {
		if st.verb != nil && !slices.Contains([]string{"join", "leave", "send"}, st.verb.name) {
			return false
		}
	}
	return true
}

// TestCorpusProtocolSwap: the paper's comparison (§1.2) assumes every
// protocol delivers the same packets and differs only in cost. Every
// fault-free corpus script runs under each of scenario.ProtocolNames(),
// and each host must receive the same count under all six — membership
// changes included, since after one join latency the receiver-initiated
// protocols owe what the flood protocols deliver.
func TestCorpusProtocolSwap(t *testing.T) {
	// knownDefects pins the cells that deliver differently today, by
	// "<script> <protocol>", to exactly what they deliver; the fix of the
	// defect flips the pin.
	knownDefects := map[string]map[string]int{
		// ROADMAP item 17(A): a transit router revives its pruned (*,G) when
		// a rejoins at 60 s without joining upstream, so a is black-holed
		// until the next periodic refresh; the other five protocols give a
		// 90.
		"churn.pim pim-sm-shared": {"a/G0": 32},
		// A sparse-mode sender that is also a member hears its own first
		// packet once: the RP sends the registered copy down the shared
		// tree, back through the DR, before the DR holds (S,G) state to
		// RPF-drop it (core's TestSenderAlsoMember tolerates one echo). In
		// interop.pim both hosts send; with dense=3,4 the deep one sits in
		// the dense region and hears no echo.
		"interop.pim pim-sm":        {"sparse/G0": 21},
		"interop.pim pim-sm-shared": {"sparse/G0": 21, "deep/G0": 21},
	}
	paths, err := Discover("../../scenarios")
	if err != nil {
		t.Fatal(err)
	}
	swapped := 0
	for _, path := range paths {
		s, err := ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !faultFree(s) {
			continue
		}
		swapped++
		name := strings.TrimPrefix(path, "../../scenarios/")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := map[string]map[string]int{}
			for _, proto := range scenario.ProtocolNames() {
				sw, err := Parse(protocolSwap(s, proto))
				if err != nil {
					t.Fatalf("%s: %v", proto, err)
				}
				res, err := sw.RunWith(RunConfig{})
				if err != nil {
					t.Fatalf("%s: %v", proto, err)
				}
				got[proto] = res.Delivered
			}
			// The count most of the six protocols give is the one owed.
			owed := map[string]int{}
			for host := range got["pim-sm"] {
				votes, most := map[int]int{}, 0
				for _, d := range got {
					votes[d[host]]++
				}
				for n, v := range votes {
					if v > most || v == most && n > owed[host] {
						owed[host], most = n, v
					}
				}
			}
			for _, proto := range scenario.ProtocolNames() {
				want := maps.Clone(owed)
				maps.Copy(want, knownDefects[name+" "+proto])
				if !maps.Equal(got[proto], want) {
					t.Errorf("%s delivers %v, want %v", proto, got[proto], want)
				}
			}
		})
	}
	if swapped < 6 {
		t.Errorf("only %d fault-free corpus scripts", swapped)
	}
}

// unicastSwap rewrites a parsed script's `unicast` line to name substrate,
// keeping everything else, its expectations included.
func unicastSwap(s *Script, substrate string) string {
	lines := strings.Split(s.Body(), "\n")
	for _, st := range s.stmts {
		if st.row.name == "unicast" {
			lines[st.line-1] = "unicast " + substrate
		}
	}
	return strings.Join(lines, "\n")
}

// declares reports whether s has a row statement whose first operand is arg.
func declares(s *Script, row, arg string) bool {
	return slices.ContainsFunc(s.stmts, func(st stmt) bool { return st.row.name == row && st.args[0] == arg })
}

// TestCorpusUnicastSwap: PIM consumes unicast tables "independent of the
// underlying unicast routing" (§2), so every corpus script that runs over
// the oracle must also pass over the routing protocols: under `dv` and
// under `ls`, with the checker on, each holds its expectations with no
// violation it does not record, and each fault-free script delivers the
// oracle run's per-host counts. A fault script's counts may differ: a
// protocol reroutes only once it has converged. MOSPF reads the oracle's
// trees and runs over nothing else.
func TestCorpusUnicastSwap(t *testing.T) {
	// knownDefects pins, by "<script> <substrate>", the failures a cell
	// reports today; the fix of the defect empties its pin.
	knownDefects := map[string][]string{
		// ROADMAP item 8: DV convergence, not a CBT leak. A crashed
		// router's routes expire only after 3 × 30 s of silence, so for
		// the whole 60 s crash the leaf's re-join heads for the dead r2;
		// after r2's restart the leaf re-joins through it, and r2's one
		// entry is the leaf's live branch. A longer run keeps it, and a
		// crash longer than the route timeout gives r2 state 0.
		"baselines/cbt-crash.pim dv": {
			"line 22: leaf received G0 = 136, want >= 150",
			"line 24: router r2 state = 1, want == 0",
		},
	}
	// floors pins, by "<script> <substrate>", the least a fault script
	// must deliver per host there: it owes no oracle count.
	floors := map[string]map[string]int{
		// ROADMAP item 8: LSAs lost to the 5 % control loss move the RP's
		// route toward the source. Its (S,G) must forget the SPT bit then,
		// or it drops every Register until native data returns (147; the
		// oracle delivers 249).
		"partition.pim ls": {"recv/G0": 200},
	}
	paths, err := Discover("../../scenarios")
	if err != nil {
		t.Fatal(err)
	}
	swapped := 0
	for _, path := range paths {
		s, err := ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !declares(s, "unicast", "oracle") || declares(s, "protocol", "mospf") {
			continue
		}
		swapped++
		name := strings.TrimPrefix(path, "../../scenarios/")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var owed map[string]int
			if faultFree(s) {
				res, err := s.RunWith(RunConfig{})
				if err != nil {
					t.Fatal(err)
				}
				owed = res.Delivered
			}
			for _, substrate := range []string{"dv", "ls"} {
				sw, err := Parse(unicastSwap(s, substrate))
				if err != nil {
					t.Fatalf("%s: %v", substrate, err)
				}
				res, err := sw.RunWith(RunConfig{Checked: true})
				if err != nil {
					t.Fatalf("%s: %v", substrate, err)
				}
				if want := knownDefects[name+" "+substrate]; !slices.Equal(res.Failures, want) {
					t.Errorf("%s: failures %q, want %q", substrate, res.Failures, want)
				}
				if !s.ExpectsViolations() && len(res.Violations) > 0 {
					t.Errorf("%s: %d invariant violations, the first %s", substrate, len(res.Violations), res.Violations[0])
				}
				if owed != nil && !maps.Equal(res.Delivered, owed) {
					t.Errorf("%s delivers %v, the oracle %v", substrate, res.Delivered, owed)
				}
				for host, least := range floors[name+" "+substrate] {
					if res.Delivered[host] < least {
						t.Errorf("%s: %s received %d, want >= %d", substrate, host, res.Delivered[host], least)
					}
				}
			}
		})
	}
	if swapped != 21 {
		t.Errorf("%d corpus scripts run over the oracle without MOSPF, want 21", swapped)
	}
}
