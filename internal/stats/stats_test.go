package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKLBernoulliBasics(t *testing.T) {
	tests := []struct {
		name string
		p, q float64
		want float64
	}{
		{name: "equal distributions", p: 0.3, q: 0.3, want: 0},
		{name: "equal at zero", p: 0, q: 0, want: 0},
		{name: "equal at one", p: 1, q: 1, want: 0},
		{name: "half vs quarter", p: 0.5, q: 0.25, want: 0.5*math.Log(2) + 0.5*math.Log(2.0/3.0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := KLBernoulli(tt.p, tt.q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("KL(%v||%v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestKLBernoulliInfinite(t *testing.T) {
	got, err := KLBernoulli(0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Fatalf("KL(0.5||0) = %v, want +Inf", got)
	}
}

func TestKLBernoulliInvalid(t *testing.T) {
	if _, err := KLBernoulli(-0.1, 0.5); err == nil {
		t.Fatal("negative p accepted")
	}
	if _, err := KLBernoulli(0.5, 1.1); err == nil {
		t.Fatal("q > 1 accepted")
	}
}

func TestKLBernoulliNonNegative(t *testing.T) {
	f := func(pRaw, qRaw uint16) bool {
		p := float64(pRaw) / 65535
		q := float64(qRaw)/65535*0.98 + 0.01 // keep q in (0,1) to avoid Inf
		got, err := KLBernoulli(p, q)
		return err == nil && got >= -1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLemma21 verifies the paper's Lemma 2.1:
// D(B_{1-δ} || B_{1-τδ}) ≥ (δ/4)(τ − 1 − ln τ) for δ ∈ (0, 1/4), τ ∈ (1, 1/δ).
func TestLemma21(t *testing.T) {
	f := func(dRaw, tRaw uint16) bool {
		delta := float64(dRaw)/65536*0.2499 + 1e-6 // (0, 1/4)
		tauMax := 1 / delta
		tau := 1 + float64(tRaw)/65536*(tauMax-1-1e-9)
		if tau <= 1 || tau >= tauMax {
			return true
		}
		kl, err := KLBernoulli(1-delta, 1-tau*delta)
		if err != nil {
			return false
		}
		return kl+1e-12 >= KLGapLowerBound(delta, tau)
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLemma21Grid(t *testing.T) {
	for _, delta := range []float64{1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.24} {
		for _, tau := range []float64{1.01, 1.1, 1.5, 2, 3, 4} {
			if tau >= 1/delta {
				continue
			}
			kl, err := KLBernoulli(1-delta, 1-tau*delta)
			if err != nil {
				t.Fatal(err)
			}
			if lb := KLGapLowerBound(delta, tau); kl < lb-1e-12 {
				t.Errorf("Lemma 2.1 violated at δ=%v τ=%v: KL=%v < bound=%v", delta, tau, kl, lb)
			}
		}
	}
}

func TestGapF(t *testing.T) {
	if got := GapF(1); math.Abs(got) > 1e-12 {
		t.Fatalf("f(1) = %v, want 0", got)
	}
	prev := 0.0
	for tau := 1.1; tau < 10; tau += 0.1 {
		v := GapF(tau)
		if v <= prev {
			t.Fatalf("f not increasing at τ=%v", tau)
		}
		prev = v
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(50, 100, 1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("interval [%v, %v] does not contain the point estimate 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("interval [%v, %v] implausibly wide for 100 trials", lo, hi)
	}
}

func TestWilsonIntervalEdges(t *testing.T) {
	lo, hi := WilsonInterval(0, 100, 1.96)
	if lo != 0 {
		t.Errorf("zero successes: lo = %v, want 0", lo)
	}
	if hi <= 0 || hi > 0.1 {
		t.Errorf("zero successes: hi = %v, want small positive", hi)
	}
	lo, hi = WilsonInterval(100, 100, 1.96)
	if hi < 1-1e-9 {
		t.Errorf("all successes: hi = %v, want ~1", hi)
	}
	if lo >= 1 || lo < 0.9 {
		t.Errorf("all successes: lo = %v, want close to 1", lo)
	}
	lo, hi = WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("no trials: [%v, %v], want [0, 1]", lo, hi)
	}
}

func TestWilsonNarrowsWithTrials(t *testing.T) {
	lo1, hi1 := WilsonInterval(10, 100, 1.96)
	lo2, hi2 := WilsonInterval(1000, 10000, 1.96)
	if hi2-lo2 >= hi1-lo1 {
		t.Fatalf("interval did not narrow: %v vs %v", hi2-lo2, hi1-lo1)
	}
}

func TestLpNormKnownValues(t *testing.T) {
	x := []float64{3, 4}
	if got := LpNorm(x, 2); math.Abs(got-5) > 1e-12 {
		t.Errorf("‖(3,4)‖₂ = %v, want 5", got)
	}
	if got := LpNorm(x, 1); math.Abs(got-7) > 1e-12 {
		t.Errorf("‖(3,4)‖₁ = %v, want 7", got)
	}
	if got := LpNorm(x, math.Inf(1)); math.Abs(got-4) > 1e-12 {
		t.Errorf("‖(3,4)‖∞ = %v, want 4", got)
	}
}

func TestLpNormUnitCostVector(t *testing.T) {
	// Section 4: for all costs 1, ‖T‖₂ = √k.
	for _, k := range []int{1, 4, 100} {
		ones := make([]float64, k)
		for i := range ones {
			ones[i] = 1
		}
		if got, want := LpNorm(ones, 2), math.Sqrt(float64(k)); math.Abs(got-want) > 1e-9 {
			t.Errorf("k=%d: ‖1‖₂ = %v, want %v", k, got, want)
		}
	}
}

func TestLpNormMonotoneInP(t *testing.T) {
	f := func(a, b, c int8) bool {
		x := []float64{float64(a), float64(b), float64(c)}
		// ‖x‖_p is non-increasing in p.
		prev := math.Inf(1)
		for _, p := range []float64{1, 1.5, 2, 4, 8, 16} {
			v := LpNorm(x, p)
			if v > prev+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLpNormEmptyAndZero(t *testing.T) {
	if LpNorm(nil, 2) != 0 {
		t.Error("empty vector should have norm 0")
	}
	if LpNorm([]float64{0, 0}, 3) != 0 {
		t.Error("zero vector should have norm 0")
	}
}

func TestLpNormLargePNoOverflow(t *testing.T) {
	x := []float64{1e300, 1e300}
	got := LpNorm(x, 64)
	if math.IsInf(got, 1) || math.IsNaN(got) {
		t.Fatalf("overflow: %v", got)
	}
	if got < 1e300 {
		t.Fatalf("‖x‖₆₄ = %v, want ≥ max element", got)
	}
}

func TestBinomialTail(t *testing.T) {
	tests := []struct {
		n    int
		p    float64
		k    int
		want float64
	}{
		{n: 10, p: 0.5, k: 0, want: 1},
		{n: 10, p: 0.5, k: 11, want: 0},
		{n: 1, p: 0.5, k: 1, want: 0.5},
		{n: 2, p: 0.5, k: 1, want: 0.75},
		{n: 2, p: 0.5, k: 2, want: 0.25},
		{n: 10, p: 0, k: 1, want: 0},
		{n: 10, p: 1, k: 10, want: 1},
	}
	for _, tt := range tests {
		if got := BinomialTail(tt.n, tt.p, tt.k); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("BinomialTail(%d, %v, %d) = %v, want %v", tt.n, tt.p, tt.k, got, tt.want)
		}
	}
}

func TestBinomialTailMonotoneInK(t *testing.T) {
	prev := 1.1
	for k := 0; k <= 20; k++ {
		v := BinomialTail(20, 0.3, k)
		if v > prev+1e-12 {
			t.Fatalf("tail not monotone at k=%d", k)
		}
		prev = v
	}
}
