package scenario

import (
	"cmp"
	"slices"

	"pim/internal/addr"
	"pim/internal/cbt"
	"pim/internal/core"
	"pim/internal/dvmrp"
	"pim/internal/faults"
	"pim/internal/igmp"
	"pim/internal/metrics"
	"pim/internal/mospf"
	"pim/internal/netsim"
	"pim/internal/pimdm"
	"pim/internal/telemetry"
)

// Deployment is the uniform surface every protocol deployment exposes: the
// fault layer (internal/faults, internal/script, the recovery experiment)
// kills and revives routers through it, the experiments read the §1.2
// overhead axes through it, and checked runs read the invariant checker's
// findings through it, without knowing which protocol is running.
type Deployment interface {
	// Crash fail-stops router i: all interfaces down, engine and IGMP
	// querier stopped with their soft state discarded.
	Crash(i int)
	// Restart revives router i empty; state rebuilds from soft-state
	// refresh only.
	Restart(i int)
	// Stop shuts down every engine and querier of the deployment.
	Stop()
	// TotalState sums forwarding/tree/membership entries across routers —
	// the network-wide state metric of §1.2.
	TotalState() int
	// StateAt returns router i's forwarding/tree entry count.
	StateAt(i int) int
	// StateBytes sums the MFIB memory footprint across routers — the
	// byte-level cost of the entry count TotalState reports (DESIGN.md
	// §16); zero for CBT and MOSPF, whose per-group tree and cache state
	// are not reported through the shared mfib store.
	StateBytes() int64
	// ControlMessages sums the protocol's control-message counters (the
	// ctrlCounters row of the deployed Protocol; a mixed internet's is the
	// union of the two PIM rows) across routers.
	ControlMessages() int64
	// Counter sums one metrics counter across routers.
	Counter(id metrics.ID) int64
	// Violations returns the invariant checker's findings, sorted by time
	// then router (nil without WithInvariantChecker).
	Violations() []telemetry.Violation
}

// Engine is what the deployment layer needs of one router's protocol
// instance; the five multicast engines satisfy it, mostly through the chassis
// they embed, and so does a border router.
type Engine interface {
	faults.Lifecycle
	Start()
	StateCount() int
	Counters() *metrics.Counters
	LocalJoin(ifc *netsim.Iface, g addr.IP)
	LocalLeave(ifc *netsim.Iface, g addr.IP)
}

// Deployed is one protocol's engine on every router of a Sim, each wired to
// that router's IGMP querier: the single Deployment implementation, written
// once over the engine's router type.
type Deployed[R Engine] struct {
	Sim      *Sim
	Routers  []R
	Queriers []*igmp.Querier

	// ctrl is the protocol's ctrlCounters row.
	ctrl []metrics.ID
	// checker is the invariant checker (nil unless deployed
	// WithInvariantChecker).
	checker *telemetry.Checker
}

// The per-protocol deployments. Callers that need engine internals assert to
// one of these: sim.Deploy(SparseMode, ...).(*PIMDeployment).Routers[i].MFIB.
// SparseMode with dense routers deploys a MixedDeployment, whose router i is
// a *core.Router, a *pimdm.Router or a *border.BorderRouter by its role.
type (
	PIMDeployment   = Deployed[*core.Router]
	PIMDMDeployment = Deployed[*pimdm.Router]
	DVMRPDeployment = Deployed[*dvmrp.Router]
	CBTDeployment   = Deployed[*cbt.Router]
	MOSPFDeployment = Deployed[*mospf.Router]
	MixedDeployment = Deployed[Engine]
)

// ctrlCounters lists, per protocol, the counters whose sum is its
// control-message total (§1.2's "control message processing" axis): the
// messages that build and maintain trees, not neighbor discovery.
var ctrlCounters = [...][]metrics.ID{
	SparseMode: {metrics.CtrlJoinPrune, metrics.CtrlRegister, metrics.CtrlRPReach},
	DenseMode:  {metrics.CtrlPrune, metrics.CtrlGraft, metrics.CtrlJoinPrune, metrics.CtrlAssert},
	DVMRPMode:  {metrics.CtrlPrune, metrics.CtrlGraft},
	CBTMode:    {metrics.CtrlCBTJoin, metrics.CtrlCBTAck, metrics.CtrlCBTEcho},
	MOSPFMode:  {metrics.CtrlLSA},
}

// engines lists what runs on router i, in stop order.
func (d *Deployed[R]) engines(i int) []faults.Lifecycle {
	return []faults.Lifecycle{d.Routers[i], d.Queriers[i]}
}

// Crash fail-stops router i (see Deployment).
func (d *Deployed[R]) Crash(i int) {
	faults.CrashRouter(d.Sim.Net, d.Sim.Routers[i], d.engines(i)...)
}

// Restart revives router i (see Deployment).
func (d *Deployed[R]) Restart(i int) {
	faults.RestartRouter(d.Sim.Net, d.Sim.Routers[i], d.engines(i)...)
}

// Stop shuts down every engine and querier.
func (d *Deployed[R]) Stop() {
	for i := range d.Routers {
		for _, e := range d.engines(i) {
			e.Stop()
		}
	}
}

// StateAt returns router i's forwarding/tree entry count.
func (d *Deployed[R]) StateAt(i int) int { return d.Routers[i].StateCount() }

// TotalState sums StateAt across all routers.
func (d *Deployed[R]) TotalState() int {
	total := 0
	for _, r := range d.Routers {
		total += r.StateCount()
	}
	return total
}

// StateBytes sums the MFIB memory footprint across all routers (see
// Deployment).
func (d *Deployed[R]) StateBytes() int64 {
	var total int64
	for _, r := range d.Routers {
		total += mfibBytes(r)
	}
	return total
}

// Counter sums one metrics counter across all routers.
func (d *Deployed[R]) Counter(id metrics.ID) int64 {
	var total int64
	for _, r := range d.Routers {
		total += r.Counters().Get(id)
	}
	return total
}

// ControlMessages sums the protocol's control counters across all routers.
func (d *Deployed[R]) ControlMessages() int64 {
	var total int64
	for _, id := range d.ctrl {
		total += d.Counter(id)
	}
	return total
}

// Violations returns the checker's failed invariants in simulated-time order,
// same-instant findings by router.
func (d *Deployed[R]) Violations() []telemetry.Violation {
	if d.checker == nil {
		return nil
	}
	all := append([]telemetry.Violation(nil), d.checker.Violations()...)
	slices.SortStableFunc(all, func(x, y telemetry.Violation) int {
		if x.At != y.At {
			return cmp.Compare(x.At, y.At)
		}
		return cmp.Compare(x.Router, y.Router)
	})
	return all
}
