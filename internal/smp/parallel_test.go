package smp

import (
	"testing"

	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/tester"
)

func testInputs(t *testing.T, nBits int) (x, y []byte) {
	t.Helper()
	nBytes := (nBits + 7) / 8
	x = make([]byte, nBytes)
	y = make([]byte, nBytes)
	for i := range x {
		x[i] = byte(37*i + 5)
		y[i] = byte(91*i + 2)
	}
	return x, y
}

// pinWorkerInvariance runs est at several worker counts from identical
// caller streams and requires identical estimates and identical caller-RNG
// advancement.
func pinWorkerInvariance(t *testing.T, name string, est func(workers int, r *rng.RNG) (float64, error)) {
	t.Helper()
	type outcome struct {
		est  float64
		next uint64
	}
	var want outcome
	for i, workers := range []int{1, 2, 3, 8} {
		r := rng.New(19)
		got, err := est(workers, r)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		o := outcome{est: got, next: r.Uint64()}
		if i == 0 {
			want = o
			continue
		}
		if o != want {
			t.Fatalf("%s workers=%d: (est=%v next=%d), want (est=%v next=%d)",
				name, workers, o.est, o.next, want.est, want.next)
		}
	}
}

func TestEqualityParallelWorkerInvariant(t *testing.T) {
	e, err := NewEquality(512, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, y := testInputs(t, 512)
	pinWorkerInvariance(t, "chunk", func(workers int, r *rng.RNG) (float64, error) {
		return e.EstimateRejectProb(x, y, 400, workers, r)
	})
}

func TestEqualityParallelMatchesGuarantees(t *testing.T) {
	e, err := NewEquality(512, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, y := testInputs(t, 512)
	r := rng.New(3)
	// Equal inputs are never rejected.
	rejEq, err := e.EstimateRejectProb(x, x, 500, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if rejEq != 0 {
		t.Fatalf("equal inputs rejected with probability %v", rejEq)
	}
	// Unequal inputs are rejected at least at the guaranteed rate (with
	// slack for sampling noise over 4000 trials).
	rejNeq, err := e.EstimateRejectProb(x, y, 4000, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if rejNeq < e.GuaranteedReject()*0.5 {
		t.Fatalf("unequal inputs rejected with probability %v < half the guarantee %v",
			rejNeq, e.GuaranteedReject())
	}
}

// TestRunPreparedMatchesRun pins that the prepared fast path decides every
// trial exactly as the message-materializing Run does on the same coins.
func TestRunPreparedMatchesRun(t *testing.T) {
	e, err := NewEquality(512, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, y := testInputs(t, 512)
	cx, cy, err := encodePair(e.code, x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2][]byte{{x, y}, {x, x}} {
		ca, cb := cx, cy
		if &pair[1][0] == &x[0] {
			cb = cx
		}
		for seed := uint64(0); seed < 200; seed++ {
			r1, r2 := rng.New(seed), rng.New(seed)
			want, err := e.Run(pair[0], pair[1], r1)
			if err != nil {
				t.Fatal(err)
			}
			if got := e.runPrepared(ca, cb, r2); got != want {
				t.Fatalf("seed %d: runPrepared=%v, Run=%v", seed, got, want)
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("seed %d: coin streams diverged", seed)
			}
		}
	}
}

func TestSingleCellParallelWorkerInvariant(t *testing.T) {
	s, err := NewSingleCellEquality(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	x, y := testInputs(t, 512)
	pinWorkerInvariance(t, "singlecell", func(workers int, r *rng.RNG) (float64, error) {
		return s.EstimateRejectProb(x, y, 400, workers, r)
	})
	// Equal inputs are never rejected.
	rej, err := s.EstimateRejectProb(x, x, 300, 0, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if rej != 0 {
		t.Fatalf("equal inputs rejected with probability %v", rej)
	}
}

func TestReductionParallelWorkerInvariant(t *testing.T) {
	build := func(domain int) (tester.Tester, error) {
		return tester.NewSingleCollision(domain, 0.1, 1.0/6)
	}
	e, err := NewEqualityFromTester(128, build)
	if err != nil {
		t.Fatal(err)
	}
	x, y := testInputs(t, 128)
	pinWorkerInvariance(t, "reduction", func(workers int, r *rng.RNG) (float64, error) {
		return e.EstimateAcceptProb(x, y, 60, workers, r)
	})
	// Sanity: equal inputs make the mixture exactly uniform, so acceptance
	// should be high.
	acc, err := e.EstimateAcceptProb(x, x, 120, 0, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.5 {
		t.Fatalf("equal-input acceptance %v < 0.5", acc)
	}
}
