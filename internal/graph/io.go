package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph in a plain text format:
//
//	n <nodes>
//	<u> <v> <w>    (one line per edge, u < v, in pair order)
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the WriteEdgeList format. Blank lines and lines
// starting with '#' are ignored. Repeated {u,v} lines merge under AddEdge's
// keep-min policy, so round-tripping any input yields a canonical list.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if g == nil {
			if len(fields) != 2 || fields[0] != "n" {
				return nil, fmt.Errorf("graph: line %d: expected header \"n <count>\", got %q", line, text)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", line, fields[1])
			}
			g = New(n)
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: expected \"u v w\", got %q", line, text)
		}
		u, err1 := strconv.ParseInt(fields[0], 10, 32)
		v, err2 := strconv.ParseInt(fields[1], 10, 32)
		wt, err3 := strconv.ParseInt(fields[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("graph: line %d: bad edge %q", line, text)
		}
		if u == v || u < 0 || v < 0 || int(u) >= g.N() || int(v) >= g.N() || wt < 0 {
			return nil, fmt.Errorf("graph: line %d: invalid edge %d-%d (w=%d)", line, u, v, wt)
		}
		g.AddEdge(NodeID(u), NodeID(v), wt)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	g.SortAdj()
	return g, nil
}

// WriteDOT writes the graph in Graphviz DOT format; labelDist optionally
// annotates nodes with distances (pass nil to skip; Inf prints as "∞").
func WriteDOT(w io.Writer, g *Graph, labelDist []int64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "graph G {")
	if labelDist != nil {
		for v := 0; v < g.N(); v++ {
			d := "∞"
			if labelDist[v] < Inf {
				d = strconv.FormatInt(labelDist[v], 10)
			}
			fmt.Fprintf(bw, "  %d [label=\"%d (%s)\"];\n", v, v, d)
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "  %d -- %d [label=\"%d\"];\n", e.U, e.V, e.W)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
