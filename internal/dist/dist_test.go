package dist

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/unifdist/unifdist/internal/rng"
)

func TestBuildDistributions(t *testing.T) {
	for _, name := range []string{"uniform", "twobump", "zipf", "halfsupport"} {
		d, err := ByName(name, 64, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.N() != 64 {
			t.Errorf("%s: domain %d", name, d.N())
		}
	}
	if _, err := ByName("bogus", 64, 1, 1); err == nil {
		t.Error("unknown distribution accepted")
	}
}

func TestUniformBasics(t *testing.T) {
	u := NewUniform(10)
	if u.N() != 10 {
		t.Fatalf("N = %d, want 10", u.N())
	}
	for i := 0; i < 10; i++ {
		if got := u.Prob(i); math.Abs(got-0.1) > 1e-15 {
			t.Fatalf("Prob(%d) = %v, want 0.1", i, got)
		}
	}
	if got := L1FromUniform(u); got > 1e-12 {
		t.Fatalf("L1FromUniform(U) = %v, want 0", got)
	}
	if got, want := CollisionProbability(u), 0.1; math.Abs(got-want) > 1e-12 {
		t.Fatalf("χ(U₁₀) = %v, want %v", got, want)
	}
}

func TestUniformSampleRange(t *testing.T) {
	u := NewUniform(7)
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		if v := u.Sample(r); v < 0 || v >= 7 {
			t.Fatalf("sample %d out of range", v)
		}
	}
}

func TestUniformPanics(t *testing.T) {
	assertPanics(t, func() { NewUniform(0) }, "NewUniform(0)")
	assertPanics(t, func() { NewUniform(5).Prob(5) }, "Prob out of range")
	assertPanics(t, func() { NewUniform(5).Prob(-1) }, "Prob negative")
}

func TestTwoBumpDistanceExactlyEps(t *testing.T) {
	for _, eps := range []float64{0.1, 0.5, 1.0} {
		d := NewTwoBump(100, eps, 42)
		if got := L1FromUniform(d); math.Abs(got-eps) > 1e-12 {
			t.Errorf("eps=%v: L1 = %v, want exactly eps", eps, got)
		}
	}
}

func TestTwoBumpSumsToOne(t *testing.T) {
	d := NewTwoBump(50, 0.7, 9)
	total := 0.0
	for i := 0; i < d.N(); i++ {
		total += d.Prob(i)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("probabilities sum to %v", total)
	}
}

func TestTwoBumpCollisionProbability(t *testing.T) {
	// χ(two-bump) = (1+ε²)/n exactly: Σ((1±ε)/n)² over n elements.
	n, eps := 200, 0.6
	d := NewTwoBump(n, eps, 3)
	want := (1 + eps*eps) / float64(n)
	if got := CollisionProbability(d); math.Abs(got-want) > 1e-12 {
		t.Fatalf("χ = %v, want %v", got, want)
	}
}

func TestTwoBumpSamplerMatchesProbabilities(t *testing.T) {
	n, eps := 10, 0.8
	d := NewTwoBump(n, eps, 5)
	r := rng.New(77)
	const trials = 400000
	counts := EmpiricalHistogram(n, SampleN(d, trials, r))
	for i := 0; i < n; i++ {
		want := d.Prob(i) * trials
		sigma := math.Sqrt(want)
		if math.Abs(float64(counts[i])-want) > 6*sigma {
			t.Errorf("element %d: count %d, want %v ± %v", i, counts[i], want, 6*sigma)
		}
	}
}

func TestTwoBumpPanics(t *testing.T) {
	assertPanics(t, func() { NewTwoBump(7, 0.5, 1) }, "odd n")
	assertPanics(t, func() { NewTwoBump(8, 0, 1) }, "eps 0")
	assertPanics(t, func() { NewTwoBump(8, 1.5, 1) }, "eps > 1")
}

func TestHistogramNormalization(t *testing.T) {
	h := MustHistogram([]float64{2, 6}, "")
	if math.Abs(h.Prob(0)-0.25) > 1e-15 || math.Abs(h.Prob(1)-0.75) > 1e-15 {
		t.Fatalf("normalization wrong: %v, %v", h.Prob(0), h.Prob(1))
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, ""); err == nil {
		t.Error("empty histogram accepted")
	}
	if _, err := NewHistogram([]float64{1, -1}, ""); err == nil {
		t.Error("negative mass accepted")
	}
	if _, err := NewHistogram([]float64{0, 0}, ""); err == nil {
		t.Error("zero mass accepted")
	}
	if _, err := NewHistogram([]float64{math.NaN()}, ""); err == nil {
		t.Error("NaN mass accepted")
	}
	if _, err := NewHistogram([]float64{math.Inf(1)}, ""); err == nil {
		t.Error("Inf mass accepted")
	}
}

func TestAliasSamplerMatchesProbabilities(t *testing.T) {
	h := MustHistogram([]float64{0.5, 0.1, 0.05, 0.35, 0}, "skew")
	r := rng.New(123)
	const trials = 400000
	counts := EmpiricalHistogram(h.N(), SampleN(h, trials, r))
	for i := 0; i < h.N(); i++ {
		want := h.Prob(i) * trials
		sigma := math.Sqrt(want + 1)
		if math.Abs(float64(counts[i])-want) > 6*sigma {
			t.Errorf("element %d: count %d, want %v", i, counts[i], want)
		}
	}
	if counts[4] != 0 {
		t.Errorf("zero-probability element sampled %d times", counts[4])
	}
}

func TestAliasSamplerPropertyRandomHistograms(t *testing.T) {
	// Property: for random histograms, the sampler's empirical distribution
	// converges to the histogram (coarse 10σ check keeps flakiness at bay).
	f := func(seed uint64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		p := make([]float64, len(raw))
		total := 0.0
		for i, v := range raw {
			p[i] = float64(v)
			total += p[i]
		}
		if total == 0 {
			return true
		}
		h, err := NewHistogram(p, "prop")
		if err != nil {
			return false
		}
		r := rng.New(seed)
		const trials = 30000
		counts := EmpiricalHistogram(h.N(), SampleN(h, trials, r))
		for i := range p {
			want := h.Prob(i) * trials
			if math.Abs(float64(counts[i])-want) > 10*math.Sqrt(want+1)+10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestZipf(t *testing.T) {
	z := NewZipf(100, 1.2)
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
	for i := 1; i < z.N(); i++ {
		if z.Prob(i) > z.Prob(i-1)+1e-15 {
			t.Fatalf("Zipf probabilities not non-increasing at %d", i)
		}
	}
	if L1FromUniform(z) < 0.5 {
		t.Error("zipf(1.2) should be far from uniform")
	}
	assertPanics(t, func() { NewZipf(0, 1) }, "n=0")
	assertPanics(t, func() { NewZipf(10, 0) }, "s=0")
}

func TestPointMassMixtureDistance(t *testing.T) {
	n, w := 50, 0.3
	d := NewPointMassMixture(n, 7, w)
	want := 2 * w * (1 - 1/float64(n))
	if got := L1FromUniform(d); math.Abs(got-want) > 1e-12 {
		t.Fatalf("L1 = %v, want %v", got, want)
	}
	assertPanics(t, func() { NewPointMassMixture(10, 10, 0.5) }, "target out of range")
	assertPanics(t, func() { NewPointMassMixture(10, 0, 1.5) }, "w > 1")
}

func TestHalfSupport(t *testing.T) {
	d := NewHalfSupport(100)
	if got := L1FromUniform(d); math.Abs(got-1) > 1e-9 {
		t.Fatalf("L1 = %v, want 1", got)
	}
	for i := 50; i < 100; i++ {
		if d.Prob(i) != 0 {
			t.Fatalf("element %d should have zero mass", i)
		}
	}
	assertPanics(t, func() { NewHalfSupport(1) }, "n=1")
}

func TestLemma32OnFarDistributions(t *testing.T) {
	// Lemma 3.2: µ ε-far from uniform ⇒ χ(µ) > (1+ε²)/n.
	instances := []Distribution{
		NewTwoBump(100, 0.5, 1),
		NewTwoBump(1000, 0.9, 2),
		NewZipf(100, 1.5),
		NewPointMassMixture(200, 3, 0.4),
		NewHalfSupport(100),
	}
	for _, d := range instances {
		eps := L1FromUniform(d)
		n := float64(d.N())
		if chi := CollisionProbability(d); chi <= (1+eps*eps)/n-1e-12 {
			t.Errorf("%s: χ = %v ≤ (1+ε²)/n = %v (Lemma 3.2 violated)", d.Name(), chi, (1+eps*eps)/n)
		}
	}
}

func TestLemma32PropertyRandomHistograms(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		p := make([]float64, len(raw))
		total := 0.0
		for i, v := range raw {
			p[i] = float64(v) + 0.01
			total += p[i]
		}
		h, err := NewHistogram(p, "")
		if err != nil {
			return false
		}
		eps := L1FromUniform(h)
		chi := CollisionProbability(h)
		return chi >= (1+eps*eps)/float64(h.N())-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestL1AndTV(t *testing.T) {
	p := MustHistogram([]float64{1, 0}, "")
	q := MustHistogram([]float64{0, 1}, "")
	if got := L1(p, q); math.Abs(got-2) > 1e-15 {
		t.Fatalf("L1 = %v, want 2", got)
	}
	if got := TV(p, q); math.Abs(got-1) > 1e-15 {
		t.Fatalf("TV = %v, want 1", got)
	}
	assertPanics(t, func() { L1(NewUniform(3), NewUniform(4)) }, "mismatched domains")
}

func TestL1Symmetry(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		p, errP := NewHistogram([]float64{float64(a) + 1, float64(b) + 1}, "")
		q, errQ := NewHistogram([]float64{float64(c) + 1, float64(d) + 1}, "")
		if errP != nil || errQ != nil {
			return false
		}
		return math.Abs(L1(p, q)-L1(q, p)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHasCollision(t *testing.T) {
	tests := []struct {
		name    string
		samples []int
		want    bool
	}{
		{name: "empty", samples: nil, want: false},
		{name: "single", samples: []int{3}, want: false},
		{name: "distinct", samples: []int{1, 2, 3}, want: false},
		{name: "adjacent dup", samples: []int{1, 1}, want: true},
		{name: "distant dup", samples: []int{5, 2, 9, 5}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := HasCollision(tt.samples); got != tt.want {
				t.Fatalf("HasCollision(%v) = %v, want %v", tt.samples, got, tt.want)
			}
		})
	}
}

func TestCountCollisions(t *testing.T) {
	tests := []struct {
		name    string
		samples []int
		want    int
	}{
		{name: "empty", samples: nil, want: 0},
		{name: "distinct", samples: []int{1, 2, 3}, want: 0},
		{name: "one pair", samples: []int{1, 1, 2}, want: 1},
		{name: "triple", samples: []int{4, 4, 4}, want: 3},
		{name: "two pairs", samples: []int{1, 1, 2, 2}, want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CountCollisions(tt.samples); got != tt.want {
				t.Fatalf("CountCollisions(%v) = %d, want %d", tt.samples, got, tt.want)
			}
		})
	}
}

func TestCountCollisionsConsistentWithHasCollision(t *testing.T) {
	f := func(seed uint64, sRaw uint8) bool {
		r := rng.New(seed)
		s := int(sRaw%20) + 1
		samples := SampleN(NewUniform(10), s, r)
		return HasCollision(samples) == (CountCollisions(samples) > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmpiricalHistogramTotal(t *testing.T) {
	samples := []int{0, 1, 1, 2, 2, 2}
	counts := EmpiricalHistogram(4, samples)
	want := []int{1, 2, 3, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func assertPanics(t *testing.T, f func(), name string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func BenchmarkUniformSample(b *testing.B) {
	u := NewUniform(1 << 20)
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		_ = u.Sample(r)
	}
}

func BenchmarkTwoBumpSample(b *testing.B) {
	d := NewTwoBump(1<<20, 0.5, 1)
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		_ = d.Sample(r)
	}
}

func BenchmarkAliasSample(b *testing.B) {
	d := NewZipf(1<<16, 1.1)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Sample(r)
	}
}
