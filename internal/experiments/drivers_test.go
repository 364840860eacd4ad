package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pim/internal/netsim"
)

const driversGolden = "testdata/drivers.golden"

// renderDrivers is drivers.golden's content: the cmd/pimsim rows of the §1.2
// comparison, Figure 1(b) and 1(c), three churn
// seeds, and the congestion pair — every number the four drivers report, and
// nothing host-dependent.
func renderDrivers() string {
	var b strings.Builder
	b.WriteString("# drivers; regenerate with: go test ./internal/experiments/ -run TestDriversGolden -update\n")
	b.WriteString("# sparse smallSparse: protocol state ctrl dataPkts links maxLink delivered\n")
	for _, r := range CompareSparse(smallSparse(), AllProtocols()) {
		fmt.Fprintf(&b, "%-14s %6d %8d %10d %7d %8d %6d/%d\n",
			r.Protocol, r.State, r.CtrlMessages, r.DataPackets,
			r.LinksTouched, r.MaxLinkData, r.Delivered, r.Expected)
		if r.SPFRuns > 0 {
			fmt.Fprintf(&b, "%-14s (plus %d Dijkstra runs)\n", "", r.SPFRuns)
		}
	}
	fig1 := []Protocol{PIMSM, PIMSMShared, CBT, DVMRP, PIMDM}
	b.WriteString("# fig1b prune=30s: protocol bb-links links dataPkts delivered\n")
	for _, p := range fig1 {
		r := RunFig1Broadcast(p, 30*netsim.Second)
		fmt.Fprintf(&b, "%-14s %9d %7d %10d %10d\n",
			r.Protocol, r.BackboneLinksTouched, r.TotalLinksTouched, r.DataPackets, r.Delivered)
	}
	b.WriteString("# fig1c: protocol bb-dataPkts maxLink meanDelay(ms) delivered\n")
	for _, p := range fig1 {
		r := RunFig1Concentration(p)
		fmt.Fprintf(&b, "%-14s %12d %9d %15.1f %10d\n",
			r.Protocol, r.BackboneDataPackets, r.MaxLinkData,
			float64(r.MeanDelay)/float64(netsim.Millisecond), r.Delivered)
	}
	for _, seed := range []int64{7, 1, 3} {
		cfg := DefaultChurn()
		cfg.Seed = seed
		res := RunChurn(cfg)
		fmt.Fprintf(&b, "# churn seed=%d\njoins=%d leaves=%d ctrlMsgs=%d ctrl/event=%.1f finalState=%d\n",
			seed, res.JoinEvents, res.LeaveEvents, res.CtrlMessages, res.CtrlPerEvent, res.FinalState)
	}
	b.WriteString("# congestion DefaultCongestion: protocol meanDelay maxQueueDelay delivered (µs)\n")
	for _, p := range []Protocol{PIMSM, PIMSMShared} {
		r := RunCongestion(DefaultCongestion(), p)
		fmt.Fprintf(&b, "%-15s %dus %dus %d\n", r.Protocol, r.MeanDelay, r.MaxQueueDelay, r.Delivered)
	}
	return b.String()
}

// TestDriversGolden holds the four experiment drivers' reported numbers to
// testdata/drivers.golden, so any change to how a driver builds, runs or
// reads its simulation shows as a diff.
func TestDriversGolden(t *testing.T) {
	checkGolden(t, driversGolden, renderDrivers())
}

// checkGolden compares got with the golden file at path line by line, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("line %d diverged from %s:\nrecorded %s\ngot      %s", i+1, path, wl[i], gl[i])
			}
		}
		t.Fatalf("%s drifted; rerun with -update if the change is intended", path)
	}
}
