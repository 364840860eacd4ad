package scenario

import (
	"slices"

	"pim/internal/addr"
	"pim/internal/border"
	"pim/internal/cbt"
	"pim/internal/core"
	"pim/internal/dvmrp"
	"pim/internal/igmp"
	"pim/internal/mospf"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimdm"
	"pim/internal/telemetry"
)

// Protocol selects which multicast engine Deploy runs on every router.
type Protocol int

const (
	// SparseMode deploys PIM sparse mode (the paper's contribution, §3).
	SparseMode Protocol = iota
	// DenseMode deploys PIM dense mode (companion protocol [13]).
	DenseMode
	// DVMRPMode deploys the DVMRP flood-and-prune baseline [4].
	DVMRPMode
	// CBTMode deploys the Core Based Trees baseline [10].
	CBTMode
	// MOSPFMode deploys the MOSPF link-state baseline [3].
	MOSPFMode
)

// String names the protocol for reports.
func (p Protocol) String() string {
	switch p {
	case SparseMode:
		return "pim-sm"
	case DenseMode:
		return "pim-dm"
	case DVMRPMode:
		return "dvmrp"
	case CBTMode:
		return "cbt"
	case MOSPFMode:
		return "mospf"
	}
	return "unknown"
}

// DeployOptions collects every deployment parameter. Zero value is a usable
// default; callers normally mutate it through DeployOption functions.
type DeployOptions struct {
	// Core / Dense / DVMRP / CBT are the per-engine configurations; only
	// the one matching the deployed Protocol is consulted, and its Telemetry
	// field is overwritten with the deployment's bus (below).
	Core  core.Config
	Dense pimdm.Config
	DVMRP dvmrp.Config
	CBT   cbt.Config
	// DenseRouters, under SparseMode, makes the internet a mixed one (§4):
	// the listed routers form dense-mode regions run on the Dense
	// configuration, and every sparse router with an interface onto one of
	// them becomes a border router (see roles).
	DenseRouters []int

	// Telemetry is the deployment's event bus: every engine, IGMP querier
	// and host publishes to it. Nil deploys with the zero-cost disabled path
	// everywhere.
	Telemetry *telemetry.Bus
	// InvariantChecker attaches an online telemetry.Checker asserting the
	// §3.8 soft-state contracts to Telemetry, creating the bus if none was
	// supplied.
	InvariantChecker bool
	// FailFast arms the checker's first-violation halt: the simulation's
	// scheduler stops at the violation's exact simulated time. Implies
	// InvariantChecker.
	FailFast bool

	// IGMPQueryInterval / IGMPHoldTime override the querier timers when
	// nonzero (fault experiments shrink them to speed re-learning).
	IGMPQueryInterval netsim.Time
	IGMPHoldTime      netsim.Time
	// MOSPFRefresh enables periodic LSA re-origination (MOSPFMode only).
	MOSPFRefresh netsim.Time
}

// DeployOption mutates DeployOptions; pass them to Deploy.
type DeployOption func(*DeployOptions)

// WithCoreConfig replaces the PIM sparse-mode configuration wholesale.
func WithCoreConfig(cfg core.Config) DeployOption {
	return func(o *DeployOptions) { o.Core = cfg }
}

// WithDenseConfig replaces the PIM dense-mode configuration wholesale.
func WithDenseConfig(cfg pimdm.Config) DeployOption {
	return func(o *DeployOptions) { o.Dense = cfg }
}

// WithDVMRPConfig replaces the DVMRP configuration wholesale.
func WithDVMRPConfig(cfg dvmrp.Config) DeployOption {
	return func(o *DeployOptions) { o.DVMRP = cfg }
}

// WithCBTConfig replaces the CBT configuration wholesale.
func WithCBTConfig(cfg cbt.Config) DeployOption {
	return func(o *DeployOptions) { o.CBT = cfg }
}

// WithDenseRouters lists the routers of the dense-mode regions of a mixed
// sparse/dense internet (SparseMode only).
func WithDenseRouters(routers ...int) DeployOption {
	return func(o *DeployOptions) { o.DenseRouters = routers }
}

// WithRPMapping maps groups to ordered RP candidate lists for sparse mode
// and, for CBT, derives the core mapping from each group's first candidate —
// one option configures the rendezvous for either protocol family.
func WithRPMapping(m map[addr.IP][]addr.IP) DeployOption {
	return func(o *DeployOptions) { o.Core.RPMapping, o.CBT.CoreMapping = m, firstAnchors(m) }
}

// cloneRPMapping copies the caller's group→RP table, lists included. Every
// sparse-mode router of a deployment reads this one copy (core.Config), so a
// caller changing its map afterwards reaches none of them.
func cloneRPMapping(m map[addr.IP][]addr.IP) map[addr.IP][]addr.IP {
	c := make(map[addr.IP][]addr.IP, len(m))
	for g, rps := range m {
		c[g] = slices.Clone(rps)
	}
	return c
}

// firstAnchors maps each group to its first RP candidate: CBT's single core.
func firstAnchors(m map[addr.IP][]addr.IP) map[addr.IP]addr.IP {
	cores := map[addr.IP]addr.IP{}
	for g, rps := range m {
		if len(rps) > 0 {
			cores[g] = rps[0]
		}
	}
	return cores
}

// WithSPTPolicy sets the sparse-mode shared-tree→SPT switching policy (§3.3).
func WithSPTPolicy(p core.SPTPolicy) DeployOption {
	return func(o *DeployOptions) { o.Core.SPTPolicy = p }
}

// WithAggregation keys sparse-mode (S,G) state by source subnet (§4).
func WithAggregation() DeployOption {
	return func(o *DeployOptions) { o.Core.AggregateSources = true }
}

// WithTelemetry attaches the event bus every engine, querier and host
// publishes to.
func WithTelemetry(bus *telemetry.Bus) DeployOption {
	return func(o *DeployOptions) { o.Telemetry = bus }
}

// WithInvariantChecker enables the online §3.8 invariant checker on the
// deployment's bus, a bus of its own when WithTelemetry supplied none. Read
// the findings with Deployment.Violations.
func WithInvariantChecker() DeployOption {
	return func(o *DeployOptions) { o.InvariantChecker = true }
}

// WithFailFast enables the invariant checker in fail-fast mode: the first
// violation halts the simulation at its exact simulated time (the clock
// freezes there; later RunUntil calls return immediately).
func WithFailFast() DeployOption {
	return func(o *DeployOptions) { o.InvariantChecker, o.FailFast = true, true }
}

// WithIGMPTimers overrides the querier's query interval and hold time.
func WithIGMPTimers(query, hold netsim.Time) DeployOption {
	return func(o *DeployOptions) { o.IGMPQueryInterval, o.IGMPHoldTime = query, hold }
}

// WithMOSPFRefresh enables periodic membership-LSA re-origination.
func WithMOSPFRefresh(d netsim.Time) DeployOption {
	return func(o *DeployOptions) { o.MOSPFRefresh = d }
}

// Deploy starts the chosen multicast protocol plus IGMP on every router of
// the simulation. Call after FinishUnicast (and after convergence for DV/LS
// modes); MOSPFMode reads its router-link state from the oracle and refuses
// any other substrate.
// SparseMode WithDenseRouters deploys the mixed internet of §4 as a
// *MixedDeployment, each router in its role (see roles).
//
//	dep := sim.Deploy(scenario.SparseMode,
//	        scenario.WithRPMapping(map[addr.IP][]addr.IP{group: {rp}}),
//	        scenario.WithInvariantChecker())
func (s *Sim) Deploy(p Protocol, opts ...DeployOption) Deployment {
	o := &DeployOptions{}
	for _, fn := range opts {
		fn(o)
	}
	if o.InvariantChecker && o.Telemetry == nil {
		o.Telemetry = telemetry.NewBus()
	}
	if len(o.DenseRouters) > 0 && p != SparseMode {
		panic("scenario: dense routers make a mixed internet of SparseMode only")
	}
	o.Core.Telemetry, o.Dense.Telemetry = o.Telemetry, o.Telemetry
	o.DVMRP.Telemetry, o.CBT.Telemetry = o.Telemetry, o.Telemetry

	// The checker subscribes before any engine starts so it observes the
	// first EpochStart of every router.
	var chk *telemetry.Checker
	if o.InvariantChecker {
		chk = telemetry.NewChecker(o.Telemetry)
		if o.FailFast {
			chk.SetFailFast(true)
			chk.Halt = s.Net.Sched.Halt
		}
		switch p {
		case SparseMode, DenseMode, DVMRPMode:
			// These engines — and both halves of a border — derive the
			// expected incoming interface from the unicast substrate, so
			// the checker can recompute it.
			chk.ExpectedIIF = func(router int, target addr.IP) (int, bool) {
				rt, ok := s.UnicastFor(router).Lookup(target)
				if !ok || rt.Iface == nil {
					return 0, false
				}
				return rt.Iface.Index, true
			}
		}
	}

	var dep Deployment
	switch p {
	case SparseMode:
		o.Core.RPMapping = cloneRPMapping(o.Core.RPMapping)
		sparse := func(i int, nd *netsim.Node) *core.Router {
			return core.New(nd, o.Core, s.UnicastFor(i))
		}
		if len(o.DenseRouters) == 0 {
			dep = deployEngines(s, o, chk, p, sparse)
			break
		}
		d := deployEngines(s, o, chk, p, s.roles(o, sparse))
		d.ctrl = slices.Concat(ctrlCounters[SparseMode], ctrlCounters[DenseMode])
		slices.Sort(d.ctrl)
		d.ctrl = slices.Compact(d.ctrl)
		dep = d
	case DenseMode:
		dep = deployEngines(s, o, chk, p, func(i int, nd *netsim.Node) *pimdm.Router {
			return pimdm.New(nd, o.Dense, s.UnicastFor(i))
		})
	case DVMRPMode:
		dep = deployEngines(s, o, chk, p, func(i int, nd *netsim.Node) *dvmrp.Router {
			return dvmrp.New(nd, o.DVMRP, s.UnicastFor(i))
		})
	case CBTMode:
		dep = deployEngines(s, o, chk, p, func(i int, nd *netsim.Node) *cbt.Router {
			return cbt.New(nd, o.CBT, s.UnicastFor(i))
		})
	case MOSPFMode:
		// MOSPF's router-link state is the oracle's live graph; a DV or LS
		// substrate has no such view to read.
		if s.oracle == nil {
			panic("scenario: MOSPF reads its link-state view from the unicast oracle: deploy it after FinishUnicast(UseOracle)")
		}
		trees := mospf.NewTrees(s.oracle)
		dep = deployEngines(s, o, chk, p, func(_ int, nd *netsim.Node) *mospf.Router {
			r := mospf.New(nd, trees)
			r.RefreshInterval, r.Telemetry = o.MOSPFRefresh, o.Telemetry
			return r
		})
	default:
		panic("scenario: unknown protocol")
	}
	s.tapHosts(o)
	return dep
}

// deployEngines is the one deploy loop: on every router it builds the
// protocol's engine with mk — the only per-protocol code — and an IGMP
// querier feeding it membership (and, where a sparse-mode instance runs,
// hosts' RP mappings), then starts both. The checker's negative-cache probe
// reads that sparse instance; a router without one holds no negative cache.
func deployEngines[R Engine](s *Sim, o *DeployOptions, chk *telemetry.Checker, p Protocol, mk func(i int, nd *netsim.Node) R) *Deployed[R] {
	d := &Deployed[R]{Sim: s, ctrl: ctrlCounters[p], checker: chk}
	for i, nd := range s.Routers {
		r := mk(i, nd)
		q := s.newQuerier(nd, o)
		q.OnJoin, q.OnLeave = r.LocalJoin, r.LocalLeave
		if sp := sparseInstance(r); sp != nil {
			q.OnRPMap = sp.LearnRPMap
		}
		r.Start()
		q.Start()
		d.Routers = append(d.Routers, r)
		d.Queriers = append(d.Queriers, q)
	}
	if chk != nil {
		chk.NegativeCached = func(router int, src, g addr.IP, iface int) bool {
			r := sparseInstance(d.Routers[router])
			if r == nil {
				return false
			}
			rpt := r.MFIB.SGRpt(src, g)
			if rpt == nil {
				return false
			}
			oif := rpt.OIF(iface)
			return oif != nil && oif.Live(r.Now()) && !oif.PrunePending
		}
	}
	return d
}

// roles builds router i's engine in a mixed sparse/dense internet (§4: "links
// should be configurable to operate in dense mode or in sparse mode"): PIM
// dense mode on a router o.DenseRouters lists; a border router on a sparse
// router with interfaces onto a dense one, its dense-side instance scoped to
// those interfaces; PIM sparse mode, built by sparse, everywhere else.
func (s *Sim) roles(o *DeployOptions, sparse func(int, *netsim.Node) *core.Router) func(int, *netsim.Node) Engine {
	dense := map[*netsim.Node]bool{}
	for _, i := range o.DenseRouters {
		dense[s.Routers[i]] = true
	}
	return func(i int, nd *netsim.Node) Engine {
		if dense[nd] {
			return pimdm.New(nd, o.Dense, s.UnicastFor(i))
		}
		if facing := denseFacingIfaces(nd, dense); facing != nil {
			return border.New(nd, o.Core, o.Dense, s.UnicastFor(i), facing)
		}
		return sparse(i, nd)
	}
}

// denseFacingIfaces returns nd's interfaces whose link attaches a dense-region
// router, each once and in index order: what makes a sparse router a border.
func denseFacingIfaces(nd *netsim.Node, denseNode map[*netsim.Node]bool) []*netsim.Iface {
	var out []*netsim.Iface
	for _, ifc := range nd.Ifaces {
		if ifc.Link == nil {
			continue
		}
		for _, peer := range ifc.Link.Ifaces {
			if peer != ifc && denseNode[peer.Node] {
				out = append(out, ifc)
				break
			}
		}
	}
	return out
}

// sparseInstance returns the PIM sparse-mode instance engine e runs: e itself,
// a border router's sparse half, or nil.
func sparseInstance(e Engine) *core.Router {
	if b, ok := e.(*border.BorderRouter); ok {
		return b.Sparse
	}
	r, _ := e.(*core.Router)
	return r
}

// mfibBytes is one router's MFIB footprint: both halves' for a border, zero
// for CBT and MOSPF, whose per-group tree and cache state are not kept in the
// shared mfib store.
func mfibBytes(e Engine) int64 {
	switch r := e.(type) {
	case *core.Router:
		return r.MFIB.Bytes()
	case *pimdm.Router:
		return r.MFIB.Bytes()
	case *dvmrp.Router:
		return r.MFIB.Bytes()
	case *border.BorderRouter:
		return mfibBytes(r.Sparse) + mfibBytes(r.Dense)
	}
	return 0
}

// newQuerier builds one router's IGMP querier with the deployment-wide
// timer overrides and telemetry bus applied.
func (s *Sim) newQuerier(nd *netsim.Node, o *DeployOptions) *igmp.Querier {
	q := igmp.NewQuerier(nd)
	if o.IGMPQueryInterval > 0 {
		q.QueryInterval = o.IGMPQueryInterval
	}
	if o.IGMPHoldTime > 0 {
		q.HoldTime = o.IGMPHoldTime
	}
	q.Telemetry = o.Telemetry
	return q
}

// tapHosts chains a delivery-event publisher onto every host's OnData hook:
// Router is the attached router index, Iface the host's index on that LAN,
// and Value the SendData timestamp in microseconds (-1 when the payload
// carries none). Existing hooks keep firing after the tap.
func (s *Sim) tapHosts(o *DeployOptions) {
	bus := o.Telemetry
	if bus == nil {
		return
	}
	for r := range s.Hosts {
		for hIdx, h := range s.Hosts[r] {
			r, hIdx, h := r, hIdx, h
			prev := h.OnData
			h.OnData = func(g addr.IP, pkt *packet.Packet) {
				now := h.Node.Sched().Now()
				sent := int64(-1)
				if lat, ok := Latency(now, pkt); ok {
					sent = int64(now - lat)
				}
				bus.Publish(telemetry.Event{
					At: now, Kind: telemetry.Deliver, Router: r, Iface: hIdx,
					Source: pkt.Src, Group: g, Value: sent,
				})
				if prev != nil {
					prev(g, pkt)
				}
			}
		}
	}
}
