// Package graph provides the network topologies the CONGEST and LOCAL
// simulations run on: lines, rings, stars, grids, complete graphs, balanced
// trees and random connected graphs, together with BFS, diameter and the
// power graph G^r needed by the LOCAL tester's MIS construction.
//
// Graphs are simple (no self-loops or parallel edges) and undirected.
// Vertices are 0-indexed.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/unifdist/unifdist/internal/rng"
)

// Graph is a simple undirected graph.
type Graph struct {
	name string
	adj  [][]int

	// powers memoizes Power by radius, so repeated LOCAL runs on one graph
	// share one G^r (and the simulator's compiled topology for it).
	// AddEdge clears it.
	powerMu sync.Mutex
	powers  map[int]*Graph
}

// New returns an empty graph with n vertices and no edges.
func New(n int, name string) *Graph {
	if n <= 0 {
		panic("graph: New requires n > 0")
	}
	return &Graph{name: name, adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// Name returns the topology's label.
func (g *Graph) Name() string { return g.name }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are rejected with an error.
func (g *Graph) AddEdge(u, v int) error {
	n := len(g.adj)
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.powerMu.Lock()
	g.powers = nil
	g.powerMu.Unlock()
	return nil
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Neighbors returns v's neighbor list. The returned slice must not be
// modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, nb := range g.adj {
		total += len(nb)
	}
	return total / 2
}

// sortAdj normalizes neighbor lists to sorted order (deterministic
// iteration for reproducible simulations).
func (g *Graph) sortAdj() {
	for _, nb := range g.adj {
		sort.Ints(nb)
	}
}

// BFS runs breadth-first search from root and returns per-vertex distance
// and parent arrays. Unreachable vertices have distance −1 and parent −1;
// the root's parent is −1.
func (g *Graph) BFS(root int) (distance, parent []int) {
	n := len(g.adj)
	if root < 0 || root >= n {
		panic(fmt.Sprintf("graph: BFS root %d out of range", root))
	}
	distance = make([]int, n)
	parent = make([]int, n)
	for i := range distance {
		distance[i] = -1
		parent[i] = -1
	}
	distance[root] = 0
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if distance[w] == -1 {
				distance[w] = distance[v] + 1
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return distance, parent
}

// bfsScratch is caller-owned BFS working memory: one distance array and
// one queue, reused across sources so all-pairs sweeps allocate O(n) once.
type bfsScratch struct {
	distance []int32
	queue    []int32
}

func newBFSScratch(n int) *bfsScratch {
	s := &bfsScratch{distance: make([]int32, n), queue: make([]int32, n)}
	for i := range s.distance {
		s.distance[i] = -1
	}
	return s
}

// run explores g from root up to depth maxDepth (−1: unbounded) and returns
// the vertices reached in BFS order; s.distance holds their distances until
// reset. Every other entry of s.distance is −1.
func (s *bfsScratch) run(g *Graph, root int, maxDepth int32) []int32 {
	s.distance[root] = 0
	queue := append(s.queue[:0], int32(root))
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		dx := s.distance[x]
		if dx == maxDepth {
			continue
		}
		for _, w := range g.adj[x] {
			if s.distance[w] == -1 {
				s.distance[w] = dx + 1
				queue = append(queue, int32(w))
			}
		}
	}
	return queue
}

// reset restores the −1 entries written by the run that reached visited.
func (s *bfsScratch) reset(visited []int32) {
	for _, v := range visited {
		s.distance[v] = -1
	}
}

// IsConnected reports whether the graph is connected.
func (g *Graph) IsConnected() bool {
	distance, _ := g.BFS(0)
	for _, d := range distance {
		if d == -1 {
			return false
		}
	}
	return true
}

// Eccentricity returns the maximum BFS distance from v. It panics if the
// graph is disconnected.
func (g *Graph) Eccentricity(v int) int {
	s := newBFSScratch(len(g.adj))
	return int(s.eccentricity(s.run(g, v, -1)))
}

// eccentricity returns the depth of a full BFS that reached visited,
// panicking if it did not reach every vertex.
func (s *bfsScratch) eccentricity(visited []int32) int32 {
	if len(visited) != len(s.distance) {
		panic("graph: eccentricity of a disconnected graph")
	}
	// BFS order is nondecreasing in distance: the last vertex is farthest.
	return s.distance[visited[len(visited)-1]]
}

// Diameter returns the exact diameter. It panics if the graph is
// disconnected.
//
// It bounds eccentricities instead of computing all of them (Takes and
// Kosters, "Determining the diameter of small world networks", 2011). A BFS
// from v gives every vertex w the bounds max(d, ε(v)−d) ≤ ε(w) ≤ ε(v)+d,
// with d = d(v, w). A vertex whose upper bound does not exceed the largest
// lower bound found so far cannot raise the diameter and drops out; the
// next BFS source alternates between the remaining vertex with the largest
// upper bound and the one with the smallest lower bound. The answer is
// exact at any source order; only the number of BFS runs varies, up to n
// on a ring. The distance array, the queue, the bounds and the candidate
// list are allocated once per call.
func (g *Graph) Diameter() int {
	n := len(g.adj)
	s := newBFSScratch(n)
	lo := make([]int32, n)
	hi := make([]int32, n)
	cand := make([]int32, n)
	for v := range cand {
		hi[v] = math.MaxInt32
		cand[v] = int32(v)
	}
	best := int32(0)
	for pickHigh := true; len(cand) > 0; pickHigh = !pickHigh {
		v := cand[0]
		for _, w := range cand[1:] {
			if (pickHigh && hi[w] > hi[v]) || (!pickHigh && lo[w] < lo[v]) {
				v = w
			}
		}
		visited := s.run(g, int(v), -1)
		e := s.eccentricity(visited)
		best = max(best, e)
		for _, w := range cand {
			d := s.distance[w]
			lo[w] = max(lo[w], d, e-d)
			hi[w] = min(hi[w], e+d)
			best = max(best, lo[w])
		}
		s.reset(visited)
		// v itself leaves here: its bounds are now both ε(v) ≤ best.
		kept := cand[:0]
		for _, w := range cand {
			if hi[w] > best {
				kept = append(kept, w)
			}
		}
		cand = kept
	}
	return int(best)
}

// Power returns G^r: vertices are the same and {u, v} is an edge iff their
// distance in g is between 1 and r. It panics if r < 1. The result is
// memoized per r until the next AddEdge, so every call with the same r
// returns the same graph; callers must not modify it.
func (g *Graph) Power(r int) *Graph {
	if r < 1 {
		panic("graph: Power requires r >= 1")
	}
	g.powerMu.Lock()
	defer g.powerMu.Unlock()
	if p, ok := g.powers[r]; ok {
		return p
	}
	p := g.power(r)
	if g.powers == nil {
		g.powers = make(map[int]*Graph)
	}
	g.powers[r] = p
	return p
}

// power builds G^r with one bounded BFS per vertex on shared scratch,
// reading each neighbor list off the distance array in vertex order so it
// comes out sorted.
func (g *Graph) power(r int) *Graph {
	n := len(g.adj)
	p := New(n, fmt.Sprintf("%s^%d", g.name, r))
	s := newBFSScratch(n)
	for v := 0; v < n; v++ {
		visited := s.run(g, v, int32(r))
		nb := make([]int, 0, len(visited)-1)
		for w, d := range s.distance {
			if d > 0 {
				nb = append(nb, w)
			}
		}
		p.adj[v] = nb
		s.reset(visited)
	}
	return p
}

// NewLine returns the path graph on k vertices (diameter k−1).
func NewLine(k int) *Graph {
	g := New(k, fmt.Sprintf("line(%d)", k))
	for i := 0; i+1 < k; i++ {
		mustEdge(g, i, i+1)
	}
	return g
}

// NewRing returns the cycle on k vertices (diameter ⌊k/2⌋). It panics for
// k < 3.
func NewRing(k int) *Graph {
	if k < 3 {
		panic("graph: NewRing requires k >= 3")
	}
	g := New(k, fmt.Sprintf("ring(%d)", k))
	for i := 0; i < k; i++ {
		mustEdge(g, i, (i+1)%k)
	}
	return g
}

// NewStar returns the star with center 0 and k−1 leaves (diameter 2 for
// k ≥ 3).
func NewStar(k int) *Graph {
	g := New(k, fmt.Sprintf("star(%d)", k))
	for i := 1; i < k; i++ {
		mustEdge(g, 0, i)
	}
	return g
}

// NewComplete returns K_k.
func NewComplete(k int) *Graph {
	g := New(k, fmt.Sprintf("complete(%d)", k))
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			mustEdge(g, i, j)
		}
	}
	return g
}

// NewGrid returns the rows×cols grid graph (diameter rows+cols−2).
func NewGrid(rows, cols int) *Graph {
	if rows <= 0 || cols <= 0 {
		panic("graph: NewGrid requires positive dimensions")
	}
	g := New(rows*cols, fmt.Sprintf("grid(%dx%d)", rows, cols))
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				mustEdge(g, id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				mustEdge(g, id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// NewBalancedTree returns the complete arity-ary tree with k vertices,
// numbered in BFS order (vertex i's parent is (i−1)/arity).
func NewBalancedTree(k, arity int) *Graph {
	if arity < 1 {
		panic("graph: NewBalancedTree requires arity >= 1")
	}
	g := New(k, fmt.Sprintf("tree(%d,arity=%d)", k, arity))
	for i := 1; i < k; i++ {
		mustEdge(g, (i-1)/arity, i)
	}
	return g
}

// NewRandomConnected returns a connected random graph: a uniform random
// attachment tree (guaranteeing connectivity) plus each non-tree edge
// independently with probability p. Deterministic in seed.
func NewRandomConnected(k int, p float64, seed uint64) *Graph {
	if k <= 0 {
		panic("graph: NewRandomConnected requires k > 0")
	}
	if p < 0 || p > 1 {
		panic("graph: edge probability outside [0, 1]")
	}
	r := rng.New(seed)
	g := New(k, fmt.Sprintf("random(%d,p=%.3g)", k, p))
	// parent[v] < v is v's tree parent. When row u is drawn, only rows
	// below u have added non-tree edges, so a vertex v > u is adjacent to u
	// only as its tree child: parent[v] != u replaces an adjacency scan per
	// pair, and the draws are the same.
	parent := make([]int, k)
	for i := 1; i < k; i++ {
		parent[i] = r.Intn(i)
		mustEdge(g, parent[i], i)
	}
	if p > 0 {
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				if parent[v] != u && r.Float64() < p {
					mustEdge(g, u, v)
				}
			}
		}
	}
	g.sortAdj()
	return g
}

func mustEdge(g *Graph, u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}
