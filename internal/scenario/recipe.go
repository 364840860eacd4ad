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
}

// ProtocolNames lists the names Recipe.Protocol accepts: the five engines,
// plus sparse mode pinned to the RP tree (pim-sm with SPT "never").
func ProtocolNames() []string {
	return []string{"pim-sm", "pim-sm-shared", "pim-dm", "dvmrp", "cbt", "mospf"}
}

// Sequential reports whether the recipe's protocol must run on an unsharded
// network — the one protocol pin on sharding, asked by every front end before
// it partitions. MOSPF's routers flood through one shared in-memory Domain,
// synchronously: racy and order-sensitive across concurrently executing
// shards (Deploy panics on a sharded network for the same reason).
func (rec Recipe) Sequential() bool { return rec.Protocol == "mospf" }

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
// describes; extra options (telemetry, invariant checker) apply after the
// recipe's own.
func (s *Sim) DeployRecipe(rec Recipe, extra ...DeployOption) (Deployment, error) {
	var p Protocol
	var engine DeployOption
	t := rec.timers()
	switch rec.Protocol {
	case "pim-sm", "pim-sm-shared":
		cfg, err := rec.coreConfig()
		if err != nil {
			return nil, err
		}
		p, engine = SparseMode, WithCoreConfig(cfg)
	case "pim-dm":
		p, engine = DenseMode, WithDenseConfig(pimdm.Config{PruneHoldTime: t.pruneHold, QueryInterval: t.hello})
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
	return s.Deploy(p, append(opts, extra...)...), nil
}

// DeployInteropRecipe is DeployInterop with the sparse side configured from
// rec; the dense side takes the recipe's prune hold and is otherwise default.
func (s *Sim) DeployInteropRecipe(rec Recipe, denseRouters map[int]bool) (*InteropDeployment, error) {
	cfg, err := rec.coreConfig()
	if err != nil {
		return nil, err
	}
	return s.DeployInterop(cfg, pimdm.Config{PruneHoldTime: rec.timers().pruneHold}, denseRouters), nil
}
