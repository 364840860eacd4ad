// Command quickstart walks the paper's Figures 3 and 4: a receiver joins a
// group through its designated router, the shared tree forms hop by hop
// toward the rendezvous point, a sender registers, the RP joins back toward
// the source, and data flows end to end.
//
// Topology (the figures' layout):
//
//	receiver — A — B — C(RP) — D — sender
package main

import (
	"fmt"

	"pim"
	"pim/internal/metrics"
)

func main() {
	// Routers 0..3 are A, B, C, D.
	g := pim.NewTopology(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)

	sim := pim.BuildSim(g)
	receiver := sim.AddHost(0)
	sender := sim.AddHost(3)
	sim.FinishUnicast(pim.UseOracle)

	group := pim.GroupAddress(0)
	rp := sim.RouterAddr(2) // router C is the RP
	dep := sim.Deploy(pim.SparseMode, pim.WithCoreConfig(pim.Config{RPMapping: map[pim.IP][]pim.IP{group: {rp}}})).(*pim.PIMDeployment)
	sim.Run(2 * pim.Second) // neighbor discovery

	fmt.Printf("group %v, RP at router C (%v)\n\n", group, rp)

	// Step 1 (Figure 3): the receiver joins; A sends a PIM join toward the
	// RP and every hop instantiates (*,G) state.
	fmt.Println("receiver joins ->")
	receiver.Join(group)
	sim.Run(2 * pim.Second)
	for i, name := range []string{"A", "B", "C(RP)", "D"} {
		wc := dep.Routers[i].MFIB.Wildcard(group)
		if wc == nil {
			fmt.Printf("  %-6s no state\n", name)
			continue
		}
		iif := "null (this router is the RP)"
		if wc.IIF != nil {
			iif = wc.IIF.String()
		}
		fmt.Printf("  %-6s %v  iif=%s  oifs=%d\n", name, wc, iif, wc.OIFCount())
	}

	// Step 2 (Figure 3): the sender transmits; D piggybacks the data on a
	// register to the RP; the RP joins toward the source.
	fmt.Println("\nsender transmits 5 packets ->")
	for i := 0; i < 5; i++ {
		pim.SendData(sender, group, 128)
		sim.Run(pim.Second)
	}
	src := sender.Iface.Addr
	for i, name := range []string{"A", "B", "C(RP)", "D"} {
		sg := dep.Routers[i].MFIB.SG(src, group)
		if sg == nil {
			fmt.Printf("  %-6s no (S,G) state\n", name)
			continue
		}
		fmt.Printf("  %-6s %v  SPTbit=%v\n", name, sg, sg.SPTBit)
	}
	fmt.Printf("\nreceiver delivered %d of 5 packets\n", receiver.Received[group])
	fmt.Printf("registers sent by D: %d (stop once the native path forms)\n",
		dep.Routers[3].Metrics.Get(metrics.CtrlRegister))
}
