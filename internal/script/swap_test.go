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
