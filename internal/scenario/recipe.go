package scenario

import (
	"fmt"

	"pim/internal/addr"
	"pim/internal/cbt"
	"pim/internal/core"
	"pim/internal/dvmrp"
	"pim/internal/netsim"
	"pim/internal/pimdm"
)

// timerGrade is one setting of every soft-state clock; the zero grade leaves
// each engine its defaults.
type timerGrade struct {
	refresh   netsim.Time // join/prune, RP-reachability, LSA re-origination
	hello     netsim.Time // hellos, probes, echoes, IGMP queries (hold 3×)
	pruneHold netsim.Time // flood-and-prune prune state
}

// fastTimers is the fast grade (Recipe.FastTimers): every clock shrunk so
// that crash recovery and membership re-learning complete within a
// few-minute run. With the default clocks a crashed router's state can
// outlive a fault scenario.
var fastTimers = timerGrade{refresh: 20 * netsim.Second, hello: 10 * netsim.Second, pruneHold: 60 * netsim.Second}

// Recipe describes one deployment the way the front ends (the script
// language, the experiments) name it: a protocol by name and the handful of
// values they vary. DeployRecipe turns it into engine configurations, so no
// front end fills one itself.
type Recipe struct {
	// Protocol is one of ProtocolNames.
	Protocol string
	// Anchors maps each group to its ordered RP candidate list; the first
	// candidate doubles as the group's CBT core.
	Anchors map[addr.IP][]addr.IP
	// PruneHold is the flood-and-prune protocols' prune lifetime; zero
	// leaves it to the timer grade.
	PruneHold netsim.Time
	// SPT is sparse mode's shared-tree→SPT policy (§3.3): "immediate" (also
	// ""), "never" or "threshold".
	SPT string
	// Aggregate keys sparse-mode (S,G) state by source subnet (§4).
	Aggregate bool
	// FastTimers selects the fast soft-state grade for every clock of the
	// protocol and of IGMP.
	FastTimers bool
	// Dense lists the routers of the dense-mode regions of a mixed
	// sparse/dense internet (§4; pim-sm only). They run pim-dm on the
	// recipe's clocks, and the sparse routers next to them become borders.
	Dense []int
}

// ProtocolNames lists the names Recipe.Protocol accepts: the five engines,
// plus sparse mode pinned to the RP tree (pim-sm with SPT "never").
func ProtocolNames() []string {
	return []string{"pim-sm", "pim-sm-shared", "pim-dm", "dvmrp", "cbt", "mospf"}
}

// DeclaresRP reports whether the recipe's protocol anchors each group at a
// declared router — sparse mode's RP candidates, CBT's core — so a front end
// writes Anchors for it. The other protocols have no use for one, and a
// declared list also rides every host join as an RP-map frame (§3.1 fn. 9).
func (rec Recipe) DeclaresRP() bool {
	switch rec.Protocol {
	case "pim-sm", "pim-sm-shared", "cbt":
		return true
	}
	return false
}

// timers resolves the recipe's clocks: the fast grade or the engine defaults,
// with an explicit PruneHold overriding either.
func (rec Recipe) timers() timerGrade {
	var t timerGrade
	if rec.FastTimers {
		t = fastTimers
	}
	if rec.PruneHold != 0 {
		t.pruneHold = rec.PruneHold
	}
	return t
}

func (rec Recipe) coreConfig() (core.Config, error) {
	t := rec.timers()
	cfg := core.Config{
		RPMapping:         rec.Anchors,
		JoinPruneInterval: t.refresh,
		QueryInterval:     t.hello,
		RPReachInterval:   t.refresh,
		AggregateSources:  rec.Aggregate,
	}
	switch rec.SPT {
	case "", "immediate":
		cfg.SPTPolicy = core.SwitchImmediate
	case "never":
		cfg.SPTPolicy = core.SwitchNever
	case "threshold":
		cfg.SPTPolicy = core.SwitchThreshold
	default:
		return cfg, fmt.Errorf("unknown spt=%q", rec.SPT)
	}
	if rec.Protocol == "pim-sm-shared" {
		cfg.SPTPolicy = core.SwitchNever
	}
	return cfg, nil
}

// DeployRecipe deploys the protocol rec names with the configuration rec
// describes — a mixed sparse/dense internet when rec lists dense routers;
// extra options (telemetry, invariant checker) apply after the recipe's own.
func (s *Sim) DeployRecipe(rec Recipe, extra ...DeployOption) (Deployment, error) {
	var p Protocol
	var engine DeployOption
	t := rec.timers()
	dense := pimdm.Config{PruneHoldTime: t.pruneHold, QueryInterval: t.hello}
	switch rec.Protocol {
	case "pim-sm", "pim-sm-shared":
		cfg, err := rec.coreConfig()
		if err != nil {
			return nil, err
		}
		p, engine = SparseMode, WithCoreConfig(cfg)
	case "pim-dm":
		p, engine = DenseMode, WithDenseConfig(dense)
	case "dvmrp":
		p, engine = DVMRPMode, WithDVMRPConfig(dvmrp.Config{PruneLifetime: t.pruneHold, ProbeInterval: t.hello})
	case "cbt":
		p, engine = CBTMode, WithCBTConfig(cbt.Config{CoreMapping: firstAnchors(rec.Anchors), EchoInterval: t.hello})
	case "mospf":
		// Event-driven LSAs alone cannot survive a crash — the restarted
		// router missed them — so the fast grade re-originates periodically.
		p, engine = MOSPFMode, WithMOSPFRefresh(t.refresh)
	default:
		return nil, fmt.Errorf("unknown protocol %q", rec.Protocol)
	}
	opts := []DeployOption{engine, WithIGMPTimers(t.hello, 3*t.hello)}
	if len(rec.Dense) > 0 {
		if rec.Protocol != "pim-sm" {
			return nil, fmt.Errorf("dense routers apply to pim-sm only, not %s", rec.Protocol)
		}
		opts = append(opts, WithDenseConfig(dense), WithDenseRouters(rec.Dense...))
	}
	return s.Deploy(p, append(opts, extra...)...), nil
}
