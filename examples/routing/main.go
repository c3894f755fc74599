// Routing: builds all-pairs routing tables for a small ISP-like topology by
// running one low-congestion SSSP per router and scheduling all instances
// concurrently with staggered start delays (the paper's APSP implication,
// Section 1.1). Prints the routing table of one router and the scheduling
// numbers showing why polylog congestion matters.
package main

import (
	"fmt"
	"log"

	"dsssp"
	"dsssp/internal/graph"
)

func main() {
	// Clustered topology: 6 PoPs of 8 routers each, ring-connected.
	g := graph.Clusters(6, 8, 6, graph.UniformWeights(10, 4), 4)
	res, err := dsssp.APSP(g, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Next-hop table for router 0 toward every destination: the neighbor w
	// minimizing dist(w, dst) + weight(0, w).
	fmt.Println("router 0 routing table (dst -> next hop, distance):")
	for dst := 1; dst < 12; dst++ {
		best, bestVia := dsssp.Inf+1, dsssp.NodeID(0)
		for _, h := range g.Adj(0) {
			if d := res.Dist[dst][h.To] + h.W; d < best {
				best, bestVia = d, h.To
			}
		}
		fmt.Printf("  %2d -> via %2d (dist %d)\n", dst, bestVia, res.Dist[0][dst])
	}

	c := res.Composition
	fmt.Printf("\nscheduling %d concurrent SSSP instances:\n", g.N())
	fmt.Printf("  per-instance dilation T = %d rounds\n", c.Dilation)
	fmt.Printf("  worst edge congestion C = %d messages\n", c.Congestion)
	fmt.Printf("  makespan aligned      = %d\n", c.MakespanAligned)
	fmt.Printf("  makespan staggered    = %d   (theory: Õ(C+T) = Õ(%d))\n",
		c.Makespan, c.Congestion+c.Dilation)
	fmt.Printf("  makespan sequential   = %d\n", c.MakespanSequential)
}
