// Command dsssp-run executes one algorithm on a generated graph and prints
// distances (optionally) and the complexity metrics.
//
// Usage:
//
//	dsssp-run -alg sssp -model congest -family random -n 256 -maxw 16 -source 0
//	dsssp-run -alg bfs -model sleeping -family path -n 512 -threshold 511
//	dsssp-run -alg apsp -n 64
package main

import (
	"flag"
	"fmt"
	"os"

	"dsssp"
	"dsssp/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dsssp-run:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		alg       = flag.String("alg", "sssp", "algorithm: sssp | bfs | apsp")
		model     = flag.String("model", "congest", "model: congest | sleeping")
		family    = flag.String("family", "random", "graph family (path|cycle|tree|grid|random|cluster|star|expander|barbell|powerlaw|bfgadget|disconnected)")
		n         = flag.Int("n", 128, "number of nodes")
		maxw      = flag.Int64("maxw", 8, "max edge weight (1 = unweighted)")
		seed      = flag.Int64("seed", 1, "graph generator and weight seed")
		source    = flag.Int("source", 0, "SSSP source")
		threshold = flag.Int64("threshold", -1, "BFS threshold (-1: n-1)")
		printDist = flag.Bool("dist", false, "print distances")
		graphFile = flag.String("graph", "", "read the graph from an edge-list file instead of generating one")
		dotOut    = flag.String("dot", "", "write the graph (with SSSP distances) as Graphviz DOT to this file")
	)
	flag.Parse()

	var g *graph.Graph
	if *graphFile != "" {
		f, err := os.Open(*graphFile)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err = graph.ReadEdgeList(f)
		if err != nil {
			return err
		}
	} else {
		w := graph.UnitWeights
		if *maxw > 1 {
			w = graph.UniformWeights(*maxw, *seed)
		}
		g = graph.Make(graph.Family(*family), *n, w, *seed)
	}
	opts := &dsssp.Options{}
	switch *model {
	case "congest":
		opts.Model = dsssp.ModelCongest
	case "sleeping":
		opts.Model = dsssp.ModelSleeping
	default:
		return fmt.Errorf("unknown model %q", *model)
	}

	switch *alg {
	case "sssp":
		res, err := dsssp.SSSP(g, dsssp.NodeID(*source), opts)
		if err != nil {
			return err
		}
		fmt.Printf("n=%d m=%d model=%s\n%s\nmax subproblems per node: %d\n",
			g.N(), g.M(), *model, res.Metrics.String(), res.SubproblemsMax)
		if *printDist {
			fmt.Println(res.Dist)
		}
		if *dotOut != "" {
			f, err := os.Create(*dotOut)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := graph.WriteDOT(f, g, res.Dist); err != nil {
				return err
			}
			fmt.Println("wrote", *dotOut)
		}
	case "bfs":
		th := *threshold
		if th < 0 {
			th = int64(g.N() - 1)
		}
		res, err := dsssp.BFS(g, map[dsssp.NodeID]bool{dsssp.NodeID(*source): true}, th, opts)
		if err != nil {
			return err
		}
		fmt.Printf("n=%d m=%d model=%s threshold=%d\n%s\n", g.N(), g.M(), *model, th, res.Metrics.String())
		if *printDist {
			fmt.Println(res.Dist)
		}
	case "apsp":
		res, err := dsssp.APSP(g, opts)
		if err != nil {
			return err
		}
		c := res.Composition
		fmt.Printf("n=%d m=%d instances=%d\n", g.N(), g.M(), g.N())
		fmt.Printf("dilation=%d congestion=%d\n", c.Dilation, c.Congestion)
		fmt.Printf("makespan: aligned=%d staggered=%d sequential=%d\n",
			c.MakespanAligned, c.Makespan, c.MakespanSequential)
	default:
		return fmt.Errorf("unknown algorithm %q", *alg)
	}
	return nil
}
