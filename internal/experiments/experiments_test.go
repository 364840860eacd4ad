package experiments

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"pim/internal/netsim"
	"pim/internal/scenario"
	"pim/internal/topology"
)

// smallSparse shrinks the default workload so tests stay fast.
func smallSparse() SparseConfig {
	cfg := DefaultSparse()
	cfg.Nodes = 20
	cfg.Groups = 2
	cfg.Members = 3
	cfg.Senders = 1
	cfg.Duration = 120 * netsim.Second
	cfg.PruneLifetime = 40 * netsim.Second
	return cfg
}

// TestAllProtocolsAreTheRecipeNames: the experiments name protocols through
// the recipe's list and nothing else — the list the script language's
// protocol statement is held to as well — so a name cannot be added to one
// front end and not the others.
func TestAllProtocolsAreTheRecipeNames(t *testing.T) {
	var got []string
	for _, p := range AllProtocols() {
		got = append(got, string(p))
	}
	want := scenario.ProtocolNames()
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("AllProtocols() = %v, scenario.ProtocolNames() = %v", got, want)
	}
}

func TestSparseDeliveryAllProtocols(t *testing.T) {
	cfg := smallSparse()
	for _, p := range AllProtocols() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			res := RunSparse(cfg, p)
			if res.Delivered == 0 {
				t.Fatalf("%s delivered nothing: %+v", p, res)
			}
			// Every protocol must deliver the large majority of packets
			// (transition windows can drop a handful).
			if res.Delivered < res.Expected*8/10 {
				t.Errorf("%s delivered %d of %d expected", p, res.Delivered, res.Expected)
			}
			// And must not systematically duplicate: a short shared-to-SPT
			// transition can double a few packets, nothing more.
			if res.Delivered > res.Expected+res.Expected/10 {
				t.Errorf("%s over-delivered %d of %d expected (duplicates)",
					p, res.Delivered, res.Expected)
			}
		})
	}
}

func TestSparseModeTouchesFewerLinksThanDense(t *testing.T) {
	cfg := smallSparse()
	sparse := RunSparse(cfg, PIMSM)
	dense := RunSparse(cfg, DVMRP)
	if sparse.LinksTouched >= dense.LinksTouched {
		t.Errorf("PIM-SM touched %d links, DVMRP %d — sparse mode should touch fewer",
			sparse.LinksTouched, dense.LinksTouched)
	}
	if sparse.DataPackets >= dense.DataPackets {
		t.Errorf("PIM-SM data crossings %d, DVMRP %d — sparse mode should cost less",
			sparse.DataPackets, dense.DataPackets)
	}
}

func TestMOSPFPaysMembershipAndSPFCosts(t *testing.T) {
	cfg := smallSparse()
	res := RunSparse(cfg, MOSPF)
	if res.SPFRuns == 0 {
		t.Error("MOSPF reported no SPF runs")
	}
	// Membership rows are stored on every router: state far exceeds the
	// on-tree-only PIM state.
	pim := RunSparse(cfg, PIMSM)
	if res.State <= pim.State {
		t.Errorf("MOSPF state %d not above PIM-SM state %d", res.State, pim.State)
	}
}

func TestFig1BroadcastShape(t *testing.T) {
	prune := 30 * netsim.Second
	dv := RunFig1Broadcast(DVMRP, prune)
	sm := RunFig1Broadcast(PIMSM, prune)
	if dv.Delivered == 0 || sm.Delivered == 0 {
		t.Fatalf("no delivery: dvmrp=%d pimsm=%d", dv.Delivered, sm.Delivered)
	}
	// DVMRP's periodic grow-back floods every backbone link at least once
	// during the measured window; PIM's tree leaves off-tree links clean.
	if dv.BackboneLinksTouched < 4 {
		t.Errorf("DVMRP touched only %d backbone links — expected near-full broadcast", dv.BackboneLinksTouched)
	}
	if sm.BackboneLinksTouched >= dv.BackboneLinksTouched {
		t.Errorf("PIM-SM touched %d backbone links vs DVMRP %d", sm.BackboneLinksTouched, dv.BackboneLinksTouched)
	}
	if sm.DataPackets >= dv.DataPackets {
		t.Errorf("PIM-SM crossings %d vs DVMRP %d", sm.DataPackets, dv.DataPackets)
	}
}

func TestFig1ConcentrationShape(t *testing.T) {
	cbtRes := RunFig1Concentration(CBT)
	sptRes := RunFig1Concentration(PIMSM)
	if cbtRes.Delivered == 0 || sptRes.Delivered == 0 {
		t.Fatalf("no delivery: cbt=%d pim=%d", cbtRes.Delivered, sptRes.Delivered)
	}
	// The shared tree forces Y↔Z traffic through the core's domain, so
	// delivery paths are longer than over shortest-path trees ("the packets
	// traveling from Y to Z will not travel via the shortest path"). The
	// at-scale concentration difference is Figure 2(b)'s measurement in
	// internal/trees; with a single symmetric 3-member group the per-link
	// packet totals tie.
	if cbtRes.MeanDelay <= sptRes.MeanDelay {
		t.Errorf("CBT mean delay %v not above PIM-SM %v",
			cbtRes.MeanDelay, sptRes.MeanDelay)
	}
}

func TestCompareSparseRunsAll(t *testing.T) {
	cfg := smallSparse()
	cfg.Duration = 60 * netsim.Second
	results := CompareSparse(cfg, []Protocol{PIMSM, CBT})
	if len(results) != 2 || results[0].Protocol != PIMSM || results[1].Protocol != CBT {
		t.Fatalf("results = %+v", results)
	}
	if results[0].String() == "" {
		t.Error("empty string rendering")
	}
}

// TestSenderScalingShape pins the paper's §3 trade: PIM's state grows with
// the sender set (it "require[s] enumeration of sources"); CBT's per-group
// shared tree does not.
func TestSenderScalingShape(t *testing.T) {
	base := smallSparse()
	base.Groups = 2
	base.Duration = 90 * netsim.Second
	points := RunSenderScaling(base, []int{1, 4}, []Protocol{PIMSM, CBT})
	pimGrowth := points[1].Results[0].State - points[0].Results[0].State
	cbtGrowth := points[1].Results[1].State - points[0].Results[1].State
	if pimGrowth <= 0 {
		t.Errorf("PIM state did not grow with senders: %+d", pimGrowth)
	}
	if cbtGrowth >= pimGrowth {
		t.Errorf("CBT state growth %d not below PIM's %d", cbtGrowth, pimGrowth)
	}
}

// TestGroupScalingShape: every protocol's state grows with group count, and
// MOSPF grows fastest (membership stored on every router).
func TestGroupScalingShape(t *testing.T) {
	base := smallSparse()
	base.Duration = 90 * netsim.Second
	points := RunGroupScaling(base, []int{1, 4}, []Protocol{PIMSM, MOSPF})
	pimGrowth := points[1].Results[0].State - points[0].Results[0].State
	mospfGrowth := points[1].Results[1].State - points[0].Results[1].State
	if pimGrowth <= 0 || mospfGrowth <= 0 {
		t.Fatalf("state did not grow with groups: pim=%+d mospf=%+d", pimGrowth, mospfGrowth)
	}
	if mospfGrowth <= pimGrowth {
		t.Errorf("MOSPF growth %d not above PIM's %d (membership should be stored everywhere)",
			mospfGrowth, pimGrowth)
	}
}

// TestChurnCostBounded: membership dynamics cost a bounded number of
// control messages per event (receiver-initiated joins touch only the path
// to the tree, §1.1/§2), and state does not accumulate.
func TestChurnCostBounded(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Nodes = 30
	cfg.Duration = 300 * netsim.Second
	res := RunChurn(cfg)
	if res.JoinEvents == 0 || res.LeaveEvents == 0 {
		t.Fatalf("no churn happened: %+v", res)
	}
	// Control per event stays small: each join/leave touches at most the
	// path to the RP (diameter ~6 here) plus amortized refresh traffic.
	if res.CtrlPerEvent > 40 {
		t.Errorf("control cost per membership event = %.1f, want bounded", res.CtrlPerEvent)
	}
	// State is bounded by live membership, not by total historical joins:
	// with half the pool joined, entries exist on at most every router for
	// the single group, in each of the three kinds.
	if res.FinalState > cfg.Nodes*3 {
		t.Errorf("state %d suggests leak", res.FinalState)
	}
}

// TestRunSparseOnParsedTopology: the experiment driver accepts an external
// topology (cmd/topogen edge-list round trip).
func TestRunSparseOnParsedTopology(t *testing.T) {
	g := topology.Random(topology.GenConfig{Nodes: 20, Degree: 4}, rand.New(rand.NewSource(3)))
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := topology.ParseEdgeList(&buf, 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallSparse()
	cfg.Duration = 60 * netsim.Second
	res := RunSparseOn(parsed, cfg, PIMSM)
	if res.Delivered < res.Expected*8/10 {
		t.Errorf("delivered %d of %d on parsed topology", res.Delivered, res.Expected)
	}
}

// TestSizeScalingShape: tripling the internet size at least doubles
// flood-and-prune's data-plane cost while leaving PIM's near constant (the
// sparse-mode headline, §1.2 "size of the internet"). The sizes are
// DefaultSparse's own 50 routers and three times that: at 20 routers the
// fixed member set (2 groups × 3) already covers 30 % of the internet, so
// truncated DVMRP's cost there is mostly its tree, not its periodic flood.
func TestSizeScalingShape(t *testing.T) {
	base := smallSparse()
	base.Groups = 2
	base.Duration = 120 * netsim.Second
	base.PruneLifetime = 30 * netsim.Second
	points := RunSizeScaling(base, []int{50, 150}, []Protocol{PIMSM, DVMRP})
	pimGrowth := float64(points[1].Results[0].DataPackets) / float64(points[0].Results[0].DataPackets)
	dvGrowth := float64(points[1].Results[1].DataPackets) / float64(points[0].Results[1].DataPackets)
	if dvGrowth < 2 {
		t.Errorf("DVMRP data cost grew only %.2fx for 3x internet size", dvGrowth)
	}
	if pimGrowth > dvGrowth/1.5 {
		t.Errorf("PIM data cost grew %.2fx vs DVMRP %.2fx — sparse mode should be near size-independent",
			pimGrowth, dvGrowth)
	}
}

// TestCongestionDelayGap: with finite link bandwidth and a single shared RP
// for many groups, shared trees concentrate flows onto the RP-adjacent
// links and pay materially more delivery delay than per-source SPTs — the
// operational consequence of Figure 2(b).
func TestCongestionDelayGap(t *testing.T) {
	cfg := DefaultCongestion()
	cfg.Duration = 30 * netsim.Second
	shared := RunCongestion(cfg, PIMSMShared)
	spt := RunCongestion(cfg, PIMSM)
	if shared.Delivered == 0 || spt.Delivered == 0 {
		t.Fatalf("no delivery: shared=%d spt=%d", shared.Delivered, spt.Delivered)
	}
	if shared.MeanDelay < spt.MeanDelay*5/4 {
		t.Errorf("shared-tree delay %v not >= 1.25x SPT delay %v under congestion",
			shared.MeanDelay, spt.MeanDelay)
	}
	if shared.MaxQueueDelay == 0 {
		t.Error("no queueing observed — bandwidth limit ineffective")
	}
}
