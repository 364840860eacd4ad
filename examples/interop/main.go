// Command interop demonstrates the paper's §4 dense/sparse interoperation
// mechanism: a dense-mode (flood-and-prune) region spliced onto a PIM
// sparse-mode tree by a border router. Member existence inside the dense
// region is flooded to the border, which sends explicit joins into the
// sparse region on the region's behalf; sources inside the region are
// registered toward the RP by the border acting as their designated router.
//
//	sparse:  RP(0) —— 1 —— [2 border] —— 3 —— 4   :dense
package main

import (
	"fmt"

	"pim"
)

func main() {
	g := pim.NewTopology(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1, 1)
	}
	sim := pim.BuildSim(g)
	sparseHost := sim.AddHost(1) // sender + member in the sparse region
	denseHost := sim.AddHost(4)  // member + sender deep in the dense region
	sim.FinishUnicast(pim.UseOracle)

	group := pim.GroupAddress(0)
	dep := sim.Deploy(pim.SparseMode,
		pim.WithRPMapping(map[pim.IP][]pim.IP{group: {sim.RouterAddr(0)}}),
		pim.WithDenseConfig(pim.DenseConfig{PruneHoldTime: 600 * pim.Second}),
		pim.WithDenseRouters(3, 4), // routers 3 and 4 form the dense region
	).(*pim.MixedDeployment)
	sim.Run(2 * pim.Second)

	fmt.Println("deployment roles:")
	for i, r := range dep.Routers {
		role := "dense (PIM-DM flood-and-prune)"
		switch r.(type) {
		case *pim.Router:
			role = "sparse (PIM-SM)"
		case *pim.BorderRouter:
			role = "BORDER (sparse+dense splice)"
		}
		fmt.Printf("  router %d: %s\n", i, role)
	}

	fmt.Println("\n1. a member joins deep inside the dense region (router 4)")
	denseHost.Join(group)
	sim.Run(3 * pim.Second)
	b := dep.Routers[2].(*pim.BorderRouter)
	fmt.Printf("   member-existence flooded to the border: %v\n", b.Dense.RegionHasMembers(group))
	fmt.Printf("   border joined the sparse shared tree:   %v\n", b.Sparse.MFIB.Wildcard(group) != nil)

	fmt.Println("\n2. a sparse-region source transmits 5 packets")
	for i := 0; i < 5; i++ {
		pim.SendData(sparseHost, group, 128)
		sim.Run(pim.Second)
	}
	fmt.Printf("   dense-region member received: %d/5\n", denseHost.Received[group])

	fmt.Println("\n3. the dense-region host transmits 5 packets back")
	sparseHost.Join(group)
	sim.Run(2 * pim.Second)
	before := sparseHost.Received[group]
	for i := 0; i < 5; i++ {
		pim.SendData(denseHost, group, 128)
		sim.Run(pim.Second)
	}
	fmt.Printf("   sparse-region member received: %d/5 (border registered the dense source)\n",
		sparseHost.Received[group]-before)
}
