package tester

import (
	"testing"
	"testing/quick"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
)

func TestDistinctCountBasics(t *testing.T) {
	n, eps := 1<<14, 0.8
	dc, err := NewDistinctCount(n, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	const trials = 300
	rejU := EstimateRejectProb(dc, dist.NewUniform(n), trials, r)
	rejFar := EstimateRejectProb(dc, dist.NewTwoBump(n, eps, 5), trials, r)
	if rejU > 1.0/3 {
		t.Errorf("distinct-count rejects uniform with prob %v", rejU)
	}
	if rejFar < 2.0/3 {
		t.Errorf("distinct-count rejects far instance with prob only %v", rejFar)
	}
}

func TestDistinctCountValidation(t *testing.T) {
	if _, err := NewDistinctCount(1, 0.5, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewDistinctCount(100, 0, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewDistinctCount(100, 3, 0); err == nil {
		t.Error("eps>2 accepted")
	}
	if _, err := NewDistinctCount(100, 1, 1); err == nil {
		t.Error("s=1 accepted")
	}
}

func TestDistinctCountPanicsOnWrongSize(t *testing.T) {
	dc, err := NewDistinctCount(1000, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong size did not panic")
		}
	}()
	dc.Test([]int{1, 2}, nil)
}

func TestCountDistinct(t *testing.T) {
	tests := []struct {
		name string
		xs   []int
		want int
	}{
		{name: "empty", xs: nil, want: 0},
		{name: "single", xs: []int{5}, want: 1},
		{name: "all same", xs: []int{2, 2, 2}, want: 1},
		{name: "all distinct", xs: []int{3, 1, 2}, want: 3},
		{name: "mixed", xs: []int{1, 2, 1, 3, 2}, want: 3},
	}
	sc := dist.NewCollisionScratch()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := sc.CountDistinct(10, tt.xs); got != tt.want {
				t.Fatalf("CountDistinct(%v) = %d, want %d", tt.xs, got, tt.want)
			}
		})
	}
}

func TestCountDistinctMatchesMap(t *testing.T) {
	sc := dist.NewCollisionScratch()
	f := func(seed uint64, sRaw uint8) bool {
		r := rng.New(seed)
		xs := dist.SampleN(dist.NewUniform(10), int(sRaw%30)+1, r)
		m := make(map[int]bool)
		for _, x := range xs {
			m[x] = true
		}
		return sc.CountDistinct(10, xs) == len(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmpiricalTVAcceptsUniform(t *testing.T) {
	n, eps := 1<<12, 1.0
	tv, err := NewEmpiricalTV(n, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	const trials = 150
	rejU := EstimateRejectProb(tv, dist.NewUniform(n), trials, r)
	if rejU > 1.0/3 {
		t.Errorf("plug-in TV rejects uniform with prob %v", rejU)
	}
}

func TestEmpiricalTVStrongSignal(t *testing.T) {
	// With s ≈ n the plug-in tester does detect an extreme instance.
	n := 1 << 10
	tv, err := NewEmpiricalTV(n, 1.0, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	const trials = 100
	rejFar := EstimateRejectProb(tv, dist.NewHalfSupport(n), trials, r)
	if rejFar < 2.0/3 {
		t.Errorf("plug-in TV with s=4n rejects half-support with prob only %v", rejFar)
	}
}

func TestEmpiricalTVWeakInSublinearRegime(t *testing.T) {
	// The ablation point: at s = Θ(√n) the plug-in TV estimator cannot see
	// the two-bump perturbation (its sampling noise dwarfs ε), while the
	// collision tester at the same s can.
	n, eps := 1<<14, 1.0
	s := BaselineSampleSize(n, eps)
	tv, err := NewEmpiricalTV(n, eps, s)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewCollisionCounting(n, eps, s)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(21)
	const trials = 120
	far := dist.NewTwoBump(n, eps, 7)
	rejTV := EstimateRejectProb(tv, far, trials, r)
	rejCC := EstimateRejectProb(cc, far, trials, r)
	if rejCC < 2.0/3 {
		t.Errorf("collision tester should catch two-bump (got %v)", rejCC)
	}
	if rejTV > rejCC {
		t.Errorf("plug-in TV (%v) unexpectedly beat collisions (%v) at s=√n", rejTV, rejCC)
	}
}

func TestEmpiricalTVValidation(t *testing.T) {
	if _, err := NewEmpiricalTV(1, 0.5, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewEmpiricalTV(100, -1, 0); err == nil {
		t.Error("eps<0 accepted")
	}
}

func TestExpectedPluginTVSanity(t *testing.T) {
	// With very few samples the plug-in TV is near its maximum (~1); with
	// s ≫ n it tends to 0.
	if v := expectedPluginTV(1000, 10); v < 0.9 {
		t.Errorf("E[TV] with s≪n = %v, want ≈ 1", v)
	}
	if v := expectedPluginTV(100, 100000); v > 0.1 {
		t.Errorf("E[TV] with s≫n = %v, want ≈ 0", v)
	}
	// Monotone in s.
	prev := 2.0
	for _, s := range []int{10, 100, 1000, 10000} {
		v := expectedPluginTV(500, s)
		if v > prev+1e-9 {
			t.Errorf("E[TV] not decreasing at s=%d", s)
		}
		prev = v
	}
}

func BenchmarkDistinctCountTest(b *testing.B) {
	n := 1 << 16
	dc, err := NewDistinctCount(n, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	samples := dist.SampleN(dist.NewUniform(n), dc.SampleSize(), r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dc.Test(samples, nil)
	}
}
