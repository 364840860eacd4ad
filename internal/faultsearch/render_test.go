package faultsearch_test

import (
	"fmt"
	"testing"

	"pim/internal/experiments"
	"pim/internal/faultsearch"
	"pim/internal/netsim"
	"pim/internal/scenario"
	"pim/internal/script"
)

// TestEveryRenderedScheduleParses: the script parser rejects any operand its
// tables do not declare, so the renderer is held to the grammar over its whole
// output space — every search template × protocol, carrying one clause of
// every kind in every class and scope, as a plain schedule and as both
// found-forms, and every recovery-matrix cell at both ledgered sizes.
func TestEveryRenderedScheduleParses(t *testing.T) {
	rendered := map[string]string{}
	for _, tmpl := range faultsearch.Templates {
		for _, p := range scenario.ProtocolNames() {
			s := faultsearch.Schedule{Topo: tmpl.Name, Proto: p, Seed: 7, Clauses: []faultsearch.Clause{
				{Kind: faultsearch.KindLoss, Edge: -1, Start: 10, Stop: 20, Rate: 0.25},
				{Kind: faultsearch.KindLoss, Edge: 1, Start: 10, Stop: 20, Rate: 1, Class: faultsearch.ClassControl},
				{Kind: faultsearch.KindReorder, Edge: -1, Start: 10, Stop: 20, Window: 50 * netsim.Millisecond, Class: faultsearch.ClassData},
				{Kind: faultsearch.KindReorder, Edge: 0, Start: 12, Stop: 22, Window: 5 * netsim.Millisecond},
				{Kind: faultsearch.KindCrash, Router: tmpl.Transit[0], Start: 28, Stop: 29},
				{Kind: faultsearch.KindCut, Edge: 0, Start: 30, Stop: 40},
				{Kind: faultsearch.KindFlap, Edge: 1, Start: 30, Down: 2, Up: 3, Cycles: 2},
			}}
			plain, err := s.Render()
			if err != nil {
				t.Fatal(err)
			}
			delivery, err := faultsearch.RenderFound(s, faultsearch.Verdict{Kind: faultsearch.VerdictDelivery, Signature: "recv/G0", Detail: "recv/G0=0<50"}, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			invariant, err := faultsearch.RenderFound(s, faultsearch.Verdict{Kind: faultsearch.VerdictInvariant, Signature: "stale-timer", Detail: "forged"}, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			name := tmpl.Name + "/" + p
			rendered[name], rendered[name+" delivery"], rendered[name+" invariant"] = plain, delivery, invariant
		}
	}
	for i, cfg := range []experiments.RecoveryConfig{experiments.SmokeRecovery(), experiments.DefaultRecovery()} {
		for _, proto := range experiments.RecoveryProtocols() {
			for _, kind := range experiments.RecoveryFaults() {
				src, err := experiments.RecoveryScript(cfg, proto, kind, 7)
				if err != nil {
					t.Fatalf("recovery %s/%s: %v", proto, kind, err)
				}
				rendered[fmt.Sprintf("recovery#%d %s/%s", i, proto, kind)] = src
			}
		}
	}
	for name, src := range rendered {
		if _, err := script.Parse(src); err != nil {
			t.Errorf("%s: rendered script does not parse: %v\n%s", name, err, src)
		}
	}
}
