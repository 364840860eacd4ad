package scenario

import (
	"pim/internal/addr"
	"pim/internal/border"
	"pim/internal/core"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/pimdm"
)

// InteropDeployment is a mixed sparse/dense internet (§4): routers in dense
// regions run PIM dense mode, the rest run PIM sparse mode, and every
// sparse router adjacent to a dense region becomes a border router that
// splices the region onto the sparse trees.
type InteropDeployment struct {
	Sim *Sim
	// Sparse[i], Dense[i], Borders[i] — exactly one is non-nil per router.
	Sparse   []*core.Router
	Dense    []*pimdm.Router
	Borders  []*border.BorderRouter
	Queriers []*igmp.Querier
}

// DeployInterop starts the mixed deployment. denseRouters marks the routers
// inside dense-mode regions ("links should be configurable to operate in
// dense mode or in sparse mode", §4); the split is derived per interface:
// a sparse router's interfaces toward dense neighbors become its dense-side
// (border) interfaces.
func (s *Sim) DeployInterop(sparseCfg core.Config, denseCfg pimdm.Config, denseRouters map[int]bool) *InteropDeployment {
	d := &InteropDeployment{
		Sim:     s,
		Sparse:  make([]*core.Router, len(s.Routers)),
		Dense:   make([]*pimdm.Router, len(s.Routers)),
		Borders: make([]*border.BorderRouter, len(s.Routers)),
	}
	sparseCfg.RPMapping = cloneRPMapping(sparseCfg.RPMapping)
	denseNode := map[*netsim.Node]bool{}
	for i, nd := range s.Routers {
		if denseRouters[i] {
			denseNode[nd] = true
		}
	}
	for i, nd := range s.Routers {
		var join func(*netsim.Iface, addr.IP)
		var leave func(*netsim.Iface, addr.IP)
		var learnRP func(addr.IP, []addr.IP)
		switch facing := denseFacingIfaces(nd, denseNode); {
		case denseRouters[i]:
			r := pimdm.New(nd, denseCfg, s.UnicastFor(i))
			r.Start()
			d.Dense[i] = r
			join, leave = r.LocalJoin, r.LocalLeave
		case facing != nil:
			b := border.New(nd, sparseCfg, denseCfg, s.UnicastFor(i), facing)
			b.Start()
			d.Borders[i] = b
			join, leave = b.LocalJoin, b.LocalLeave
			learnRP = b.Sparse.LearnRPMap
		default:
			r := core.New(nd, sparseCfg, s.UnicastFor(i))
			r.Start()
			d.Sparse[i] = r
			join, leave = r.LocalJoin, r.LocalLeave
			learnRP = r.LearnRPMap
		}
		q := igmp.NewQuerier(nd)
		q.OnJoin = join
		q.OnLeave = leave
		if learnRP != nil {
			q.OnRPMap = learnRP
		}
		q.Start()
		d.Queriers = append(d.Queriers, q)
	}
	return d
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

// StateAt returns router i's forwarding entry count, whichever protocol
// instance runs there.
func (d *InteropDeployment) StateAt(i int) int {
	switch {
	case d.Sparse[i] != nil:
		return d.Sparse[i].StateCount()
	case d.Dense[i] != nil:
		return d.Dense[i].StateCount()
	default:
		return d.Borders[i].StateCount()
	}
}

// TotalState sums forwarding entries across every protocol instance.
func (d *InteropDeployment) TotalState() int {
	total := 0
	for i := range d.Sim.Routers {
		total += d.StateAt(i)
	}
	return total
}
