package unifdist_test

import (
	"fmt"
	"math"
	"testing"

	unifdist "github.com/unifdist/unifdist"
)

func TestFacadeThresholdEndToEnd(t *testing.T) {
	const (
		n   = 1 << 16
		k   = 8000
		eps = 1.0
	)
	cfg, err := unifdist.SolveThreshold(n, k, eps)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := unifdist.BuildThreshold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := unifdist.NewRNG(1)
	accept, rejects := nw.RunAt(unifdist.NewUniform(n), r.Uint64(), 0, nil, nil)
	if rejects < 0 || rejects > k {
		t.Fatalf("rejects = %d", rejects)
	}
	_ = accept
}

func TestFacadeDistributions(t *testing.T) {
	u := unifdist.NewUniform(100)
	tb := unifdist.NewTwoBump(100, 0.5, 1)
	if got := unifdist.L1(u, u); got != 0 {
		t.Errorf("L1(u,u) = %v", got)
	}
	if got := unifdist.L1FromUniform(tb); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("two-bump distance %v", got)
	}
	if got := unifdist.CollisionProbability(u); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("χ(U₁₀₀) = %v", got)
	}
}

func TestFacadeCongestPackaging(t *testing.T) {
	g := unifdist.NewGrid(5, 8)
	tokens := make([]uint64, g.N())
	for i := range tokens {
		tokens[i] = uint64(i)
	}
	res, err := unifdist.RunTokenPackaging(g, tokens, 4, unifdist.CongestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Discarded > 3 {
		t.Fatalf("discarded %d > τ−1", res.Discarded)
	}
}

func TestFacadeLocalMIS(t *testing.T) {
	g := unifdist.NewRing(12)
	res, err := unifdist.LubyMIS(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := unifdist.VerifyMIS(g, res.InMIS); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeEquality(t *testing.T) {
	e, err := unifdist.NewEquality(128, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := unifdist.NewRNG(9)
	x := make([]byte, 16)
	acc, err := e.Run(x, x, r)
	if err != nil {
		t.Fatal(err)
	}
	if !acc {
		t.Fatal("equal inputs rejected")
	}
}

func TestFacadeReduction(t *testing.T) {
	eta := []float64{0.5, 0.3, 0.2}
	f, err := unifdist.NewFilter(eta, 30)
	if err != nil {
		t.Fatal(err)
	}
	if f.OutputDomain() != 30 {
		t.Fatalf("output domain %d", f.OutputDomain())
	}
}

// ExampleSolveThreshold demonstrates resolving Theorem 1.2's parameters.
func ExampleSolveThreshold() {
	cfg, err := unifdist.SolveThreshold(1<<16, 8000, 1.0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("samples per node: %d\n", cfg.SamplesPerNode)
	fmt.Printf("feasible: %v\n", cfg.Feasible)
	// Output:
	// samples per node: 22
	// feasible: true
}

// ExampleNewSingleCollision demonstrates the paper's core gap tester.
func ExampleNewSingleCollision() {
	sc, err := unifdist.NewSingleCollision(1<<16, 0.05, 1.0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	r := unifdist.NewRNG(7)
	samples := unifdist.SampleN(unifdist.NewUniform(1<<16), sc.SampleSize(), r)
	fmt.Println("accepts distinct uniform samples:", sc.Test(samples, nil))
	// Output:
	// accepts distinct uniform samples: true
}
