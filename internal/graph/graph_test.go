package graph

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"github.com/unifdist/unifdist/internal/rng"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New(3, "t")
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("reversed duplicate edge accepted")
	}
	if err := g.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestClosedFormDiameters(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{name: "line(10)", g: NewLine(10), want: 9},
		{name: "ring(10)", g: NewRing(10), want: 5},
		{name: "ring(11)", g: NewRing(11), want: 5},
		{name: "star(10)", g: NewStar(10), want: 2},
		{name: "complete(6)", g: NewComplete(6), want: 1},
		{name: "grid(4x7)", g: NewGrid(4, 7), want: 9},
		{name: "single", g: New(1, "single"), want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Diameter(); got != tt.want {
				t.Fatalf("diameter = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestEdgeCounts(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{name: "line(10)", g: NewLine(10), want: 9},
		{name: "ring(10)", g: NewRing(10), want: 10},
		{name: "star(10)", g: NewStar(10), want: 9},
		{name: "complete(6)", g: NewComplete(6), want: 15},
		{name: "grid(3x3)", g: NewGrid(3, 3), want: 12},
		{name: "tree(7,2)", g: NewBalancedTree(7, 2), want: 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.NumEdges(); got != tt.want {
				t.Fatalf("edges = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestBFSTreeValidity(t *testing.T) {
	g := NewGrid(5, 8)
	distance, parent := g.BFS(0)
	for v := 0; v < g.N(); v++ {
		if v == 0 {
			if distance[v] != 0 || parent[v] != -1 {
				t.Fatalf("root: dist=%d parent=%d", distance[v], parent[v])
			}
			continue
		}
		p := parent[v]
		if p < 0 {
			t.Fatalf("vertex %d unreachable in connected graph", v)
		}
		if !g.HasEdge(v, p) {
			t.Fatalf("parent edge {%d,%d} missing", v, p)
		}
		if distance[v] != distance[p]+1 {
			t.Fatalf("distance[%d]=%d but parent has %d", v, distance[v], distance[p])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4, "disc")
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	distance, parent := g.BFS(0)
	if distance[2] != -1 || parent[2] != -1 {
		t.Fatalf("unreachable vertex: dist=%d parent=%d", distance[2], parent[2])
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestBalancedTreeStructure(t *testing.T) {
	g := NewBalancedTree(15, 2)
	if !g.IsConnected() {
		t.Fatal("tree disconnected")
	}
	if g.NumEdges() != 14 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	// Vertex i's parent is (i−1)/2.
	for i := 1; i < 15; i++ {
		if !g.HasEdge(i, (i-1)/2) {
			t.Fatalf("missing parent edge for %d", i)
		}
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	f := func(seed uint64, kRaw, pRaw uint8) bool {
		k := int(kRaw%60) + 1
		p := float64(pRaw) / 255 * 0.2
		g := NewRandomConnected(k, p, seed)
		return g.IsConnected() && g.N() == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	a := NewRandomConnected(40, 0.1, 7)
	b := NewRandomConnected(40, 0.1, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("vertex %d degree differs", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d neighbors differ", v)
			}
		}
	}
}

// randomConnectedPairScan is NewRandomConnected with the adjacency scan
// per pair it was first written with: the oracle for its parent[] test.
func randomConnectedPairScan(k int, p float64, seed uint64) *Graph {
	r := rng.New(seed)
	g := New(k, fmt.Sprintf("random(%d,p=%.3g)", k, p))
	for i := 1; i < k; i++ {
		mustEdge(g, r.Intn(i), i)
	}
	if p > 0 {
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				if !g.HasEdge(u, v) && r.Float64() < p {
					mustEdge(g, u, v)
				}
			}
		}
	}
	g.sortAdj()
	return g
}

// TestRandomConnectedMatchesPairScan: the tree-parent test draws the same
// stream as the pair scan, so both build the same edge list.
func TestRandomConnectedMatchesPairScan(t *testing.T) {
	cases := []struct {
		k    int
		p    float64
		seed uint64
	}{
		{1, 0.5, 1}, {2, 1, 2}, {40, 0.1, 7}, {60, 1, 5}, {100, 0, 9},
		{200, 0.02, 11}, {500, 0.0012, 3}, {800, 0.01, 4},
	}
	for _, c := range cases {
		got, want := NewRandomConnected(c.k, c.p, c.seed), randomConnectedPairScan(c.k, c.p, c.seed)
		if got.Name() != want.Name() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("random(%d, p=%v, seed %d): %q with %d edges, pair scan %q with %d",
				c.k, c.p, c.seed, got.Name(), got.NumEdges(), want.Name(), want.NumEdges())
		}
		for v := 0; v < c.k; v++ {
			if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("random(%d, p=%v, seed %d): vertex %d has neighbours %v, pair scan %v",
					c.k, c.p, c.seed, v, got.Neighbors(v), want.Neighbors(v))
			}
		}
	}
}

func TestPowerGraphDefinition(t *testing.T) {
	// In G^r, {u,v} is an edge iff 1 ≤ dist_G(u,v) ≤ r.
	g := NewRandomConnected(25, 0.05, 3)
	for _, r := range []int{1, 2, 3} {
		p := g.Power(r)
		for u := 0; u < g.N(); u++ {
			distance, _ := g.BFS(u)
			for v := 0; v < g.N(); v++ {
				if u == v {
					continue
				}
				want := distance[v] >= 1 && distance[v] <= r
				if got := p.HasEdge(u, v); got != want {
					t.Fatalf("r=%d: edge {%d,%d}=%v, distance=%d", r, u, v, got, distance[v])
				}
			}
		}
	}
}

func TestPowerOfLine(t *testing.T) {
	g := NewLine(10)
	p := g.Power(3)
	if got, want := p.Degree(0), 3; got != want {
		t.Errorf("degree of endpoint in line^3 = %d, want %d", got, want)
	}
	if got, want := p.Degree(5), 6; got != want {
		t.Errorf("degree of middle vertex in line^3 = %d, want %d", got, want)
	}
}

func TestPowerIdentity(t *testing.T) {
	// G^1 has exactly G's edges.
	g := NewGrid(3, 4)
	p := g.Power(1)
	if p.NumEdges() != g.NumEdges() {
		t.Fatalf("G^1 edges %d != G edges %d", p.NumEdges(), g.NumEdges())
	}
}

func TestEccentricityVsDiameter(t *testing.T) {
	g := NewLine(20)
	// Middle vertex has minimal eccentricity; endpoints maximal.
	if got := g.Eccentricity(0); got != 19 {
		t.Errorf("endpoint eccentricity %d, want 19", got)
	}
	if got := g.Eccentricity(10); got != 10 {
		t.Errorf("middle eccentricity %d, want 10", got)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{name: "New(0)", f: func() { New(0, "") }},
		{name: "NewRing(2)", f: func() { NewRing(2) }},
		{name: "NewGrid(0,5)", f: func() { NewGrid(0, 5) }},
		{name: "NewBalancedTree arity 0", f: func() { NewBalancedTree(5, 0) }},
		{name: "NewRandomConnected(0)", f: func() { NewRandomConnected(0, 0.5, 1) }},
		{name: "NewRandomConnected p>1", f: func() { NewRandomConnected(5, 1.5, 1) }},
		{name: "Power(0)", f: func() { NewLine(5).Power(0) }},
		{name: "BFS out of range", f: func() { NewLine(5).BFS(5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.f()
		})
	}
}

func TestDegreeSumEqualsTwiceEdges(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%40) + 2
		g := NewRandomConnected(k, 0.1, seed)
		sum := 0
		for v := 0; v < k; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDiameterGrid(b *testing.B) {
	g := NewGrid(30, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Diameter()
	}
}

// BenchmarkPowerGraph measures building G^3; Power itself would answer
// from its memo after the first call.
func BenchmarkPowerGraph(b *testing.B) {
	g := NewRandomConnected(200, 0.02, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.power(3)
	}
}

// TestDiameterMatchesAllPairs checks the bounding Diameter against the
// maximum eccentricity over every vertex, on the fixed topologies and on
// random graphs from sparse (long paths) to dense.
func TestDiameterMatchesAllPairs(t *testing.T) {
	graphs := []*Graph{
		New(1, "single"), NewLine(2), NewLine(37), NewRing(3), NewRing(40), NewRing(41),
		NewStar(25), NewComplete(9), NewGrid(7, 13), NewGrid(1, 20),
		NewBalancedTree(50, 2), NewBalancedTree(40, 3),
	}
	for seed := uint64(1); seed <= 40; seed++ {
		k := int(seed*7%60) + 2
		graphs = append(graphs, NewRandomConnected(k, []float64{0, 0.02, 0.1, 0.4}[seed%4], seed))
	}
	for _, g := range graphs {
		want := 0
		for v := 0; v < g.N(); v++ {
			want = max(want, g.Eccentricity(v))
		}
		if got := g.Diameter(); got != want {
			t.Errorf("%s: Diameter = %d, max eccentricity = %d", g.Name(), got, want)
		}
	}
}

// TestDiameterAllocsConstant checks that Diameter allocates its working
// memory once per call, not once per BFS source. On a ring every vertex
// is a BFS source.
func TestDiameterAllocsConstant(t *testing.T) {
	var want float64
	for i, k := range []int{16, 256, 2048} {
		g := NewRing(k)
		got := testing.AllocsPerRun(3, func() { _ = g.Diameter() })
		if i == 0 {
			want = got
		}
		if got != want || got > 6 {
			t.Errorf("ring(%d): Diameter made %v allocations, want %v at every k and at most 6", k, got, want)
		}
	}
}

func TestPowerMemoizedUntilAddEdge(t *testing.T) {
	g := NewLine(6)
	p2 := g.Power(2)
	if g.Power(2) != p2 {
		t.Fatal("second Power(2) built a new graph")
	}
	if g.Power(3) == p2 {
		t.Fatal("Power(3) returned the Power(2) graph")
	}
	if err := g.AddEdge(0, 5); err != nil {
		t.Fatal(err)
	}
	q2 := g.Power(2)
	if q2 == p2 {
		t.Fatal("Power(2) after AddEdge returned the stale graph")
	}
	if !q2.HasEdge(0, 4) || p2.HasEdge(0, 4) {
		t.Fatal("Power(2) after AddEdge misses the new 2-hop edge {0,4}")
	}
}

// TestPowerConcurrentCallersShareOneGraph calls Power from several
// goroutines at once (run it under -race): every caller must get the one
// memoized G^r.
func TestPowerConcurrentCallersShareOneGraph(t *testing.T) {
	g := NewGrid(6, 7)
	const callers = 8
	got := make([]*Graph, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			got[i] = g.Power(1 + i%2)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != g.Power(1+i%2) {
			t.Fatalf("caller %d got a different G^%d", i, 1+i%2)
		}
	}
}
