// DME candidate trees (the paper's Figure 3): for a cluster of four valves,
// compute the merging segments bottom-up, then embed several candidate
// Steiner trees, each satisfying the length-matching constraint, and render
// them side by side.
//
// Run with:
//
//	go run ./examples/dmetrees
package main

import (
	"fmt"
	"strings"

	"repro/internal/dme"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/route"
)

func main() {
	g := grid.New(28, 24)
	obs := grid.NewObsMap(g)
	// Four sinks S1..S4 in the diagonal arrangement of Figure 3, where the
	// merging segments are true Manhattan arcs (not points).
	sinks := []geom.Pt{
		{X: 4, Y: 4},   // S1
		{X: 14, Y: 8},  // S2
		{X: 4, Y: 16},  // S3
		{X: 14, Y: 20}, // S4
	}
	cands := dme.Candidates(obs, sinks, 4)
	fmt.Printf("%d candidate Steiner trees for sinks %v\n\n", len(cands), sinks)
	for i, tr := range cands {
		lens := tr.LeafFullLens()
		fmt.Printf("candidate %d: root %v, per-sink lengths %v, ΔL=%d, total length %d\n",
			i, tr.Root(), lens, tr.DeltaL(), tr.TotalReq())
	}
	fmt.Println()

	// Route and render each candidate on its own empty chip.
	for i, tr := range cands {
		var edges []route.Edge
		for ei, e := range tr.Edges() {
			edges = append(edges, route.Edge{ID: ei,
				Sources: []geom.Pt{e.From}, Targets: []geom.Pt{e.To}})
		}
		paths, ok := route.NewWorkspace(obs.Grid()).Negotiate(obs, edges, route.DefaultNegotiateParams(), nil)
		if !ok {
			fmt.Printf("candidate %d: routing failed\n", i)
			continue
		}
		fmt.Printf("candidate %d (S=sink, o=merging node, *=channel):\n", i)
		fmt.Println(renderTree(g, sinks, tr, paths))
	}
}

func renderTree(g grid.Grid, sinks []geom.Pt, tr *dme.Tree, paths map[int]grid.Path) string {
	cells := make([][]byte, g.H)
	for y := range cells {
		cells[y] = []byte(strings.Repeat(".", g.W))
	}
	for _, p := range paths {
		for _, c := range p {
			cells[c.Y][c.X] = '*'
		}
	}
	for ni, nd := range tr.Topo.Nodes {
		if nd.Sink < 0 {
			cells[tr.Pos[ni].Y][tr.Pos[ni].X] = 'o'
		}
	}
	for _, s := range sinks {
		cells[s.Y][s.X] = 'S'
	}
	var b strings.Builder
	for _, row := range cells {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}
