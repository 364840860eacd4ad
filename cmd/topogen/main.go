// Command topogen generates the random connected internets used throughout
// the experiments and prints them as an edge list, for inspection or for
// feeding external tools.
//
// Usage:
//
//	topogen -nodes 50 -degree 4 -seed 7
//	topogen -nodes 50 -degree 6 -mindelay 1 -maxdelay 10
package main

import (
	"flag"
	"fmt"
	"math/rand"

	"pim/internal/topology"
)

func main() {
	nodes := flag.Int("nodes", 50, "number of routers")
	degree := flag.Float64("degree", 4, "target average node degree")
	seed := flag.Int64("seed", 1, "random seed")
	minDelay := flag.Int64("mindelay", 1, "minimum edge delay")
	maxDelay := flag.Int64("maxdelay", 1, "maximum edge delay")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	g := topology.Random(topology.GenConfig{
		Nodes: *nodes, Degree: *degree,
		MinDelay: *minDelay, MaxDelay: *maxDelay,
	}, rng)

	fmt.Printf("# nodes=%d edges=%d avg-degree=%.2f connected=%v\n",
		g.N(), g.M(), g.AvgDegree(), g.Connected())
	fmt.Println("# a b delay")
	for _, e := range g.Edges() {
		fmt.Printf("%d %d %d\n", e.A, e.B, e.Delay)
	}
}
