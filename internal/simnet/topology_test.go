package simnet

import (
	"testing"

	"github.com/unifdist/unifdist/internal/graph"
)

// TestTopologyCacheReusedAndValidated checks that repeated runs on one
// graph reuse the compiled CSR tables, and that mutating the graph between
// runs triggers recompilation instead of a stale simulation.
func TestTopologyCacheReusedAndValidated(t *testing.T) {
	g := graph.NewLine(4)
	t1 := topologyFor(g)
	if t2 := topologyFor(g); t2 != t1 {
		t.Fatal("topology recompiled for an unchanged graph")
	}
	if err := g.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	t3 := topologyFor(g)
	if t3 == t1 {
		t.Fatal("stale topology served after the graph gained an edge")
	}
	if t3.degree(0) != 2 || t3.degree(3) != 2 {
		t.Fatalf("recompiled topology wrong: deg(0)=%d deg(3)=%d", t3.degree(0), t3.degree(3))
	}
}

// TestCompileTopologyRoundTrip checks the CSR tables against the graph's
// own adjacency: dst matches the neighbor lists and revPort inverts them.
func TestCompileTopologyRoundTrip(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.NewLine(13),
		graph.NewRing(11),
		graph.NewStar(9),
		graph.NewGrid(4, 5),
		graph.NewBalancedTree(15, 2),
		graph.NewRandomConnected(24, 0.12, 7),
	} {
		tp := compileTopology(g)
		if tp.edges() != 2*g.NumEdges() {
			t.Fatalf("%s: %d directed edges, want %d", g.Name(), tp.edges(), 2*g.NumEdges())
		}
		for v := 0; v < g.N(); v++ {
			nb := g.Neighbors(v)
			if tp.degree(v) != len(nb) {
				t.Fatalf("%s: degree(%d) = %d, want %d", g.Name(), v, tp.degree(v), len(nb))
			}
			for p, u := range nb {
				ei := tp.start[v] + int32(p)
				if int(tp.dst[ei]) != u {
					t.Fatalf("%s: dst(%d,%d) = %d, want %d", g.Name(), v, p, tp.dst[ei], u)
				}
				back := g.Neighbors(u)[tp.revPort[ei]]
				if back != v {
					t.Fatalf("%s: revPort(%d,%d) routes to %d, want %d", g.Name(), v, p, back, v)
				}
			}
		}
	}
}
