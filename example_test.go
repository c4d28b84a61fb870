package unifdist_test

import (
	"fmt"

	unifdist "github.com/unifdist/unifdist"
)

// ExampleSolveAND resolves Theorem 1.1's AND-rule parameters: each node
// runs m repetitions of the collision tester, and the network rejects iff
// any node rejects.
func ExampleSolveAND() {
	cfg, err := unifdist.SolveAND(1<<20, 10000, 1.0, 1.0/3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("m=%d repetitions, feasible=%v\n", cfg.M, cfg.Feasible)
	fmt.Printf("node gap %.2f vs required C_p %.2f\n", cfg.NodeGap, cfg.RequiredGap)
	// Output:
	// m=2 repetitions, feasible=true
	// node gap 2.77 vs required C_p 2.71
}

// ExampleLubyMIS computes a maximal independent set distributively and
// verifies it.
func ExampleLubyMIS() {
	g := unifdist.NewRing(9)
	res, err := unifdist.LubyMIS(g, 7)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("valid MIS:", unifdist.VerifyMIS(g, res.InMIS) == nil)
	// Output:
	// valid MIS: true
}

// ExampleRunTokenPackaging packages one token per node into groups of τ
// (Theorem 5.1): every group has exactly τ tokens and at most τ−1 tokens
// are discarded at the root.
func ExampleRunTokenPackaging() {
	g := unifdist.NewGrid(4, 5) // 20 nodes
	tokens := make([]uint64, g.N())
	for i := range tokens {
		tokens[i] = uint64(i)
	}
	res, err := unifdist.RunTokenPackaging(g, tokens, 6, unifdist.CongestOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("packages: %d, leftover: %d\n", len(res.Packages), res.Discarded)
	// Output:
	// packages: 3, leftover: 2
}

// ExampleAggregate computes a global sum in O(D) CONGEST rounds.
func ExampleAggregate() {
	g := unifdist.NewLine(10)
	values := make([]uint64, 10)
	for i := range values {
		values[i] = uint64(i + 1) // 1..10
	}
	res, err := unifdist.Aggregate(g, values, unifdist.AggSum)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("sum:", res.Value)
	// Output:
	// sum: 55
}

// ExampleNewFilter reduces identity testing to uniformity testing: the
// grained target maps exactly to the uniform distribution on M buckets.
func ExampleNewFilter() {
	eta := []float64{0.5, 0.25, 0.25}
	filter, err := unifdist.NewFilter(eta, 8)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("buckets: %d, rounding error: %.2f\n",
		filter.OutputDomain(), filter.RoundingError())
	// Output:
	// buckets: 8, rounding error: 0.00
}

// ExampleNewEquality runs Lemma 7.3's simultaneous Equality protocol:
// equal inputs are always accepted at a cost of O(√(τδn)) bits.
func ExampleNewEquality() {
	e, err := unifdist.NewEquality(1024, 0.01, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	r := unifdist.NewRNG(3)
	x := make([]byte, 128)
	accept, err := e.Run(x, x, r)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("equal inputs accepted: %v (message: %d of %d bits)\n",
		accept, e.MessageBits(), 1024)
	// Output:
	// equal inputs accepted: true (message: 37 of 1024 bits)
}
