package unicast

import (
	"container/heap"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// refOracle is the eager oracle that Oracle replaced, kept verbatim as the
// reference TestOracleMatchesReference holds the lazy one to: on every link
// change it runs one map-based Dijkstra from every node, materialises every
// /24 at every node through Table.Replace, and notifies a node's listeners
// exactly when Replace reports that its table differs.
type refOracle struct {
	net    *netsim.Network
	tables map[*netsim.Node]*Table
}

// newRefOracle builds tables for the current topology and subscribes to link
// changes on every node so tables stay current.
func newRefOracle(net *netsim.Network) *refOracle {
	o := &refOracle{net: net, tables: map[*netsim.Node]*Table{}}
	for _, nd := range net.Nodes {
		o.tables[nd] = &Table{}
		nd.OnLinkChange(func(*netsim.Iface) { o.Recompute() })
	}
	o.Recompute()
	return o
}

// RouterFor returns the node's Router view.
func (o *refOracle) RouterFor(nd *netsim.Node) Router { return o.tables[nd] }

// refItem is a Dijkstra work item over netsim nodes.
type refItem struct {
	node *netsim.Node
	dist int64
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node.ID < h[j].node.ID
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Recompute rebuilds every node's table from the live topology. Each link's
// cost is its delay; LANs behave as a clique at the LAN's delay. Destination
// prefixes are the /24 subnets of every up interface (see LinkPrefix).
func (o *refOracle) Recompute() {
	// Collect destination prefixes and which nodes own/abut them.
	prefixes := map[addr.Prefix][]*netsim.Node{}
	for _, nd := range o.net.Nodes {
		for _, ifc := range nd.Ifaces {
			if ifc.Addr == 0 || !ifc.Up() {
				continue
			}
			p := LinkPrefix(ifc.Addr)
			prefixes[p] = append(prefixes[p], nd)
		}
	}
	for _, src := range o.net.Nodes {
		dist, firstIface, firstHop, _ := o.dijkstra(src)
		entries := map[addr.Prefix]Route{}
		for p, owners := range prefixes {
			best := Route{Metric: InfMetric}
			for _, own := range owners {
				d, ok := dist[own]
				if !ok {
					continue
				}
				var r Route
				if own == src {
					// Directly connected: route out the local interface in
					// the prefix.
					var ifc *netsim.Iface
					for _, c := range src.Ifaces {
						if c.Up() && c.Addr != 0 && p.Contains(c.Addr) {
							ifc = c
							break
						}
					}
					if ifc == nil {
						continue
					}
					r = Route{Iface: ifc, NextHop: 0, Metric: 0}
				} else {
					r = Route{Iface: firstIface[own], NextHop: firstHop[own], Metric: d}
				}
				if r.Metric < best.Metric ||
					(r.Metric == best.Metric && r.NextHop < best.NextHop) {
					best = r
				}
			}
			if best.Metric < InfMetric {
				entries[p] = best
			}
		}
		if o.tables[src].Replace(entries) {
			o.tables[src].NotifyChanged()
		}
	}
}

// dijkstra runs shortest paths from src over live links, returning distance,
// the src-local first-hop interface and first-hop neighbor address used to
// reach each node, and the relaxation that did: the parent's interface and
// the node's own on the link.
func (o *refOracle) dijkstra(src *netsim.Node) (map[*netsim.Node]int64, map[*netsim.Node]*netsim.Iface, map[*netsim.Node]addr.IP, map[*netsim.Node][2]*netsim.Iface) {
	dist := map[*netsim.Node]int64{src: 0}
	firstIface := map[*netsim.Node]*netsim.Iface{}
	firstHop := map[*netsim.Node]addr.IP{}
	parent := map[*netsim.Node][2]*netsim.Iface{}
	done := map[*netsim.Node]bool{}
	h := &refHeap{{node: src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		for _, ifc := range v.Ifaces {
			if !ifc.Up() {
				continue
			}
			for _, peer := range ifc.Link.Ifaces {
				if peer == ifc || !peer.Up() {
					continue
				}
				u := peer.Node
				nd := dist[v] + int64(ifc.Link.Delay)
				old, seen := dist[u]
				better := !seen || nd < old
				if !better && nd == old && v != src {
					continue // keep first discovered (deterministic via heap order)
				}
				if better {
					dist[u] = nd
					parent[u] = [2]*netsim.Iface{ifc, peer}
					if v == src {
						firstIface[u] = ifc
						firstHop[u] = peer.Addr
					} else {
						firstIface[u] = firstIface[v]
						firstHop[u] = firstHop[v]
					}
					heap.Push(h, refItem{node: u, dist: nd})
				} else if nd == old && v == src {
					// Tie between direct neighbors: deterministic pick by
					// lower neighbor address.
					if peer.Addr < firstHop[u] {
						firstIface[u] = ifc
						firstHop[u] = peer.Addr
						parent[u] = [2]*netsim.Iface{ifc, peer}
					}
				}
			}
		}
	}
	return dist, firstIface, firstHop, parent
}
