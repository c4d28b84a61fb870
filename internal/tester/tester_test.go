package tester

import (
	"math"
	"testing"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
)

func TestSolveGapAlgebra(t *testing.T) {
	// s must satisfy s(s−1) ≈ 2δn, i.e. the realized Delta must be close to
	// the requested delta whenever s is reasonably large.
	for _, tt := range []struct {
		n     int
		delta float64
	}{
		{n: 1 << 20, delta: 0.01},
		{n: 1 << 20, delta: 0.001},
		{n: 1 << 16, delta: 0.05},
		{n: 1 << 24, delta: 1e-4},
	} {
		p, err := SolveGap(tt.n, tt.delta, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if p.S < 2 {
			t.Fatalf("n=%d δ=%v: s=%d < 2", tt.n, tt.delta, p.S)
		}
		rel := math.Abs(p.Delta-tt.delta) / tt.delta
		if p.S > 20 && rel > 0.25 {
			t.Errorf("n=%d δ=%v: realized δ=%v deviates %.0f%%", tt.n, tt.delta, p.Delta, rel*100)
		}
	}
}

func TestSolveGapScaling(t *testing.T) {
	// s = Θ(√(δn)): quadrupling n should roughly double s.
	p1, err := SolveGap(1<<20, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := SolveGap(1<<22, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(p2.S) / float64(p1.S)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("4×n changed s by %vx, want ~2x", ratio)
	}
}

func TestSolveGapErrors(t *testing.T) {
	if _, err := SolveGap(1, 0.1, 0.5); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := SolveGap(100, 0, 0.5); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := SolveGap(100, 1, 0.5); err == nil {
		t.Error("delta=1 accepted")
	}
	if _, err := SolveGap(100, 0.1, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := SolveGap(100, 0.1, 3); err == nil {
		t.Error("eps=3 accepted")
	}
}

func TestSolveGapRigorousFlag(t *testing.T) {
	// Large n, tiny delta, large eps: rigorous conditions should hold.
	p, err := SolveGap(1<<26, 1e-4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Rigorous {
		t.Errorf("n=2^26, δ=1e-4, ε=1: expected rigorous regime (γ=%v)", p.Gamma)
	}
	// Small eps with moderate delta: conditions must fail.
	p, err = SolveGap(1<<16, 0.01, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rigorous {
		t.Error("δ=0.01, ε=0.1: rigorous flag should be false (δ ≥ ε⁴/64)")
	}
}

func TestGammaApproachesOne(t *testing.T) {
	// Eq. (1): γ → 1 as δ → 0 with n → ∞ and fixed ε.
	prev := -math.MaxFloat64
	for _, n := range []int{1 << 16, 1 << 20, 1 << 24, 1 << 28} {
		p, err := SolveGap(n, 1e-5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.Gamma < prev-0.05 {
			t.Fatalf("γ decreased: %v after %v", p.Gamma, prev)
		}
		prev = p.Gamma
	}
	if prev < 0.9 || prev > 1 {
		t.Fatalf("γ = %v at n=2^28, want in [0.9, 1]", prev)
	}
}

func TestSingleCollisionCompleteness(t *testing.T) {
	// On the uniform distribution, Pr[reject] ≤ δ (Lemma 3.4(1)).
	n := 1 << 18
	sc, err := NewSingleCollision(n, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(100)
	const trials = 20000
	rej := EstimateRejectProb(sc, dist.NewUniform(n), trials, r)
	delta := sc.Params().Delta
	// Allow 5σ of sampling noise above δ.
	slack := 5 * math.Sqrt(delta*(1-delta)/trials)
	if rej > delta+slack {
		t.Fatalf("uniform rejected with prob %v > δ=%v (+%v slack)", rej, delta, slack)
	}
}

func TestSingleCollisionSoundnessGap(t *testing.T) {
	// On an ε-far distribution, Pr[reject] ≥ (1+γε²)δ when γ is meaningful.
	n := 1 << 18
	eps := 1.0
	sc, err := NewSingleCollision(n, 0.05, eps)
	if err != nil {
		t.Fatal(err)
	}
	p := sc.Params()
	far := dist.NewTwoBump(n, eps, 7)
	r := rng.New(200)
	const trials = 40000
	rejFar := EstimateRejectProb(sc, far, trials, r)
	rejUnif := EstimateRejectProb(sc, dist.NewUniform(n), trials, r)
	// The measured far-rejection probability must exceed the measured
	// uniform-rejection probability by a factor that reflects the gap. We
	// check against the guaranteed (1+γε²) with sampling slack when γ > 0,
	// and in all cases that the far instance is rejected strictly more often.
	if rejFar <= rejUnif {
		t.Fatalf("no separation: far %v ≤ uniform %v", rejFar, rejUnif)
	}
	if p.Gamma > 0 {
		want := (1 + p.Gamma*eps*eps) * p.Delta
		slack := 5 * math.Sqrt(want/trials)
		if rejFar < want-slack {
			t.Errorf("far rejection %v below guaranteed %v − %v", rejFar, want, slack)
		}
	}
}

func TestSingleCollisionTestPanicsOnWrongSize(t *testing.T) {
	sc, err := NewSingleCollision(1000, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong sample count did not panic")
		}
	}()
	sc.Test([]int{1, 2, 3}, nil)
}

func TestAmplifiedGapAlgebra(t *testing.T) {
	n := 1 << 20
	am, err := NewAmplified(n, 0.01, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	inner := am.Params()
	if got, want := am.CompletenessError(), math.Pow(inner.Delta, 3); math.Abs(got-want) > 1e-15 {
		t.Errorf("completeness error %v, want %v", got, want)
	}
	if got, want := am.Gap(), math.Pow(inner.Alpha, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("gap %v, want %v", got, want)
	}
	if got, want := am.SampleSize(), 3*inner.S; got != want {
		t.Errorf("sample size %d, want %d", got, want)
	}
}

func TestAmplifiedRejectsIffAllBlocksCollide(t *testing.T) {
	am, err := NewAmplified(1000, 0.05, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := am.Params().S
	mk := func(blockHasCollision ...bool) []int {
		var out []int
		next := 0
		for _, col := range blockHasCollision {
			block := make([]int, s)
			for i := range block {
				block[i] = next
				next++
			}
			if col {
				block[s-1] = block[0]
			}
			out = append(out, block...)
		}
		return out
	}
	if am.Test(mk(true, true), nil) {
		t.Error("all blocks collide: should reject")
	}
	if !am.Test(mk(true, false), nil) {
		t.Error("one clean block: should accept")
	}
	if !am.Test(mk(false, false), nil) {
		t.Error("all clean: should accept")
	}
}

func TestBlockCollision(t *testing.T) {
	for _, tt := range []struct {
		name    string
		m       int
		samples []int
		accept  bool
	}{
		{"no samples accepts", 2, nil, true},
		{"m below one is one block", 0, []int{1, 2, 3, 1}, false},
		{"every block collides", 2, []int{5, 5, 6, 6}, false},
		{"one clean block accepts", 2, []int{5, 5, 1, 2}, true},
		{"remainder is unused", 2, []int{4, 4, 7, 7, 9}, false},
		{"remainder cannot collide", 2, []int{4, 5, 7, 7, 4}, true},
		{"blocks under two samples accept", 4, []int{3, 3, 3}, true},
	} {
		bc := NewBlockCollision(10, len(tt.samples), tt.m)
		if got := bc.Test(tt.samples, nil); got != tt.accept {
			t.Errorf("%s: Test(%v, nil) = %v, want %v", tt.name, tt.samples, got, tt.accept)
		}
		if got := bc.Test(tt.samples, dist.NewCollisionScratch()); got != tt.accept {
			t.Errorf("%s: Test(%v, scratch) = %v, want %v", tt.name, tt.samples, got, tt.accept)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong sample count accepted")
		}
	}()
	NewBlockCollision(10, 3, 1).Test([]int{1, 2}, nil)
}

// TestBlockCollisionMatchesAmplified: at s = m·S, NewBlockCollision's
// protocol-fixed vote is NewAmplified's verdict on every input.
func TestBlockCollisionMatchesAmplified(t *testing.T) {
	const n = 64
	am, err := NewAmplified(n, 0.2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	bc := NewBlockCollision(n, am.SampleSize(), am.Repetitions())
	r := rng.New(9)
	sc := dist.NewCollisionScratch()
	samples := make([]int, am.SampleSize())
	for i := 0; i < 2000; i++ {
		dist.SampleInto(dist.NewUniform(n), samples, r)
		if got, want := bc.Test(samples, sc), am.Test(samples, nil); got != want {
			t.Fatalf("samples %v: block vote %v, amplified %v", samples, got, want)
		}
	}
}

func TestAmplifiedErrors(t *testing.T) {
	if _, err := NewAmplified(1000, 0.05, 1, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := NewAmplified(1, 0.05, 1, 2); err == nil {
		t.Error("tiny domain accepted")
	}
}

func TestAmplifiedEmpiricalGap(t *testing.T) {
	// The m-fold amplification should multiply the rejection-probability
	// ratio between far and uniform instances.
	n, eps, m := 1<<16, 1.0, 2
	am, err := NewAmplified(n, 0.2, eps, m)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	const trials = 60000
	far := dist.NewTwoBump(n, eps, 11)
	rejFar := EstimateRejectProb(am, far, trials, r)
	rejUnif := EstimateRejectProb(am, dist.NewUniform(n), trials, r)
	if rejUnif == 0 {
		t.Skip("uniform rejection too rare to measure at this trial count")
	}
	ratio := rejFar / rejUnif
	inner := am.Params()
	// Expected ratio ≈ α², but α here is the *guaranteed lower bound*; the
	// realized ratio should be at least α²'s guarantee minus noise. Use a
	// lenient floor: the amplified ratio must exceed the single-copy ratio.
	if ratio < inner.Alpha {
		t.Errorf("amplified ratio %v below single-copy alpha %v", ratio, inner.Alpha)
	}
}

func TestCollisionCountingBaseline(t *testing.T) {
	n, eps := 1<<14, 0.8
	cc, err := NewCollisionCounting(n, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(55)
	const trials = 300
	rejUnif := EstimateRejectProb(cc, dist.NewUniform(n), trials, r)
	rejFar := EstimateRejectProb(cc, dist.NewTwoBump(n, eps, 3), trials, r)
	if rejUnif > 1.0/3 {
		t.Errorf("baseline rejects uniform with prob %v > 1/3", rejUnif)
	}
	if rejFar < 2.0/3 {
		t.Errorf("baseline rejects far instance with prob %v < 2/3", rejFar)
	}
}

func TestCollisionCountingErrors(t *testing.T) {
	if _, err := NewCollisionCounting(1, 0.5, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewCollisionCounting(100, 0, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewCollisionCounting(100, 2.5, 0); err == nil {
		t.Error("eps>2 accepted")
	}
}

func TestBaselineSampleSizeScaling(t *testing.T) {
	// Θ(√n/ε²): 4×n doubles s; halving ε quadruples s.
	s1 := BaselineSampleSize(1<<16, 1)
	s2 := BaselineSampleSize(1<<18, 1)
	if r := float64(s2) / float64(s1); r < 1.9 || r > 2.1 {
		t.Errorf("n scaling ratio %v, want ~2", r)
	}
	s3 := BaselineSampleSize(1<<16, 0.5)
	if r := float64(s3) / float64(s1); r < 3.9 || r > 4.1 {
		t.Errorf("eps scaling ratio %v, want ~4", r)
	}
}

func TestScratchTestMatchesTest(t *testing.T) {
	// Test(samples, sc) must agree with Test(samples, nil) for every
	// tester, across repeated scratch reuse.
	n := 1 << 10
	sc1, err := NewSingleCollision(n, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	am, err := NewAmplified(n, 0.3, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewCollisionCounting(n, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := NewDistinctCount(n, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := NewEmpiricalTV(n, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	scratch := dist.NewCollisionScratch()
	for _, tc := range []Tester{sc1, am, NewBlockCollision(n, 50, 2), cc, dc, tv} {
		d := dist.NewTwoBump(n, 1, 5)
		for trial := 0; trial < 50; trial++ {
			samples := dist.SampleN(d, tc.SampleSize(), r)
			if got, want := tc.Test(samples, scratch), tc.Test(samples, nil); got != want {
				t.Fatalf("%s trial %d: Test(scratch)=%v Test(nil)=%v", tc.Name(), trial, got, want)
			}
		}
	}
}

func TestHasCollisionDoesNotMutate(t *testing.T) {
	xs := []int{3, 1, 2, 1}
	dist.HasCollision(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 || xs[3] != 1 {
		t.Fatal("HasCollision mutated input")
	}
}

func TestBirthdayParadoxSanity(t *testing.T) {
	// With s = √(2n·δ) and δ = 0.5 the collision probability on uniform
	// should be near 1 − e^(−1/2) ≈ 0.39 (birthday bound).
	n := 1 << 16
	sc, err := NewSingleCollision(n, 0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	got := EstimateRejectProb(sc, dist.NewUniform(n), 20000, r)
	// Markov gives Pr ≤ δ; Poissonization says Pr ≈ 1−e^{−δ} = 0.33.
	want := 1 - math.Exp(-sc.Params().Delta)
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("collision prob %v, want ≈ %v", got, want)
	}
}

func TestWienerBoundLemma33(t *testing.T) {
	// Lemma 3.3 ([Wiener]): Pr[no collision] ≤ e^{−(s−1)√χ}(1+(s−1)√χ).
	// Verify empirically on uniform, where χ = 1/n.
	n := 1 << 12
	sc, err := NewSingleCollision(n, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	const trials = 30000
	acc := 1 - EstimateRejectProb(sc, dist.NewUniform(n), trials, r)
	x := float64(sc.Params().S-1) / math.Sqrt(float64(n))
	bound := math.Exp(-x) * (1 + x)
	slack := 5 / math.Sqrt(trials)
	if acc > bound+slack {
		t.Fatalf("Pr[no collision] = %v exceeds Wiener bound %v", acc, bound)
	}
}

func BenchmarkSingleCollisionTest(b *testing.B) {
	n := 1 << 20
	sc, err := NewSingleCollision(n, 0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	samples := dist.SampleN(dist.NewUniform(n), sc.SampleSize(), r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sc.Test(samples, nil)
	}
}

func BenchmarkCollisionCountingTest(b *testing.B) {
	n := 1 << 16
	cc, err := NewCollisionCounting(n, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	samples := dist.SampleN(dist.NewUniform(n), cc.SampleSize(), r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cc.Test(samples, nil)
	}
}
