package tester

import (
	"fmt"
	"math"

	"github.com/unifdist/unifdist/internal/dist"
)

// This file holds alternative centralized statistics used by the ablation
// experiment (E12): the distinct-element count (Paninski's original
// statistic) and the empirical-TV plug-in tester. The χ²-style statistic
// Σ(N_i − s/n)² − N_i is an affine transform of the colliding-pair count,
// so CollisionCounting already covers it.

// DistinctCount accepts iff the number of distinct elements among the s
// samples is large: under uniform nearly all samples are distinct, while an
// ε-far distribution loses ≈ C(s,2)(1+ε²)/n of them to repeats.
type DistinctCount struct {
	n         int
	s         int
	eps       float64
	threshold float64 // accept iff (s − distinct) ≤ threshold
}

// NewDistinctCount builds the distinct-element tester for domain size n
// and distance eps, using s samples (0 = the collision-counting default).
func NewDistinctCount(n int, eps float64, s int) (*DistinctCount, error) {
	if n < 2 {
		return nil, fmt.Errorf("tester: domain size %d too small", n)
	}
	if eps <= 0 || eps > 2 {
		return nil, fmt.Errorf("tester: eps %v outside (0, 2]", eps)
	}
	if s <= 0 {
		s = BaselineSampleSize(n, eps)
	}
	if s < 2 {
		return nil, fmt.Errorf("tester: sample size %d too small", s)
	}
	// Expected "missing distinct" ≈ expected colliding pairs for sparse
	// sampling; place the cutoff midway between the uniform and ε-far
	// expectations.
	pairs := float64(s) * float64(s-1) / 2
	expU := pairs / float64(n)
	expFar := pairs * (1 + eps*eps) / float64(n)
	return &DistinctCount{
		n:         n,
		s:         s,
		eps:       eps,
		threshold: (expU + expFar) / 2,
	}, nil
}

// SampleSize implements Tester.
func (t *DistinctCount) SampleSize() int { return t.s }

// Test accepts iff the repeat count s − distinct is at most the threshold.
func (t *DistinctCount) Test(samples []int, sc *dist.CollisionScratch) bool {
	if len(samples) != t.s {
		panic(fmt.Sprintf("tester: got %d samples, want %d", len(samples), t.s))
	}
	return float64(t.s-sc.CountDistinct(t.n, samples)) <= t.threshold
}

// Name implements Tester.
func (t *DistinctCount) Name() string {
	return fmt.Sprintf("distinct-count(s=%d)", t.s)
}

// Threshold returns the repeat-count acceptance threshold.
func (t *DistinctCount) Threshold() float64 { return t.threshold }

// EmpiricalTV accepts iff the plug-in total-variation distance between the
// empirical histogram and the uniform distribution is below a cutoff. It
// needs s = Ω(n) samples to be meaningful — the point of including it in
// the ablation is to show how badly a plug-in estimator loses to
// collision statistics in the sublinear regime.
type EmpiricalTV struct {
	n         int
	s         int
	threshold float64
}

// NewEmpiricalTV builds the plug-in tester. The cutoff is placed midway
// between the expected plug-in TV under uniform (which is large for
// s ≪ n: sampling noise alone inflates it) and the uniform-expectation
// plus ε/2.
func NewEmpiricalTV(n int, eps float64, s int) (*EmpiricalTV, error) {
	if n < 2 {
		return nil, fmt.Errorf("tester: domain size %d too small", n)
	}
	if eps <= 0 || eps > 2 {
		return nil, fmt.Errorf("tester: eps %v outside (0, 2]", eps)
	}
	if s <= 0 {
		s = BaselineSampleSize(n, eps)
	}
	if s < 2 {
		return nil, fmt.Errorf("tester: sample size %d too small", s)
	}
	return &EmpiricalTV{
		n:         n,
		s:         s,
		threshold: expectedPluginTV(n, s) + eps/4,
	}, nil
}

// expectedPluginTV approximates E[TV(µ̂, U)] for uniform µ via the
// Poissonized occupancy expectation: each count N_i ≈ Poisson(λ), λ = s/n,
// and TV = Σ|N_i/s − 1/n|/2 = n·E|N − λ|/(2s).
func expectedPluginTV(n, s int) float64 {
	lambda := float64(s) / float64(n)
	// E|Poisson(λ) − λ| computed by direct summation.
	ead := 0.0
	p := math.Exp(-lambda)
	for k := 0; ; k++ {
		ead += p * math.Abs(float64(k)-lambda)
		if float64(k) > lambda+40*math.Sqrt(lambda+1) {
			break
		}
		p *= lambda / float64(k+1)
	}
	return float64(n) * ead / (2 * float64(s))
}

// SampleSize implements Tester.
func (t *EmpiricalTV) SampleSize() int { return t.s }

// Test computes the plug-in TV distance and compares to the cutoff; it
// needs no collision scratch.
func (t *EmpiricalTV) Test(samples []int, _ *dist.CollisionScratch) bool {
	if len(samples) != t.s {
		panic(fmt.Sprintf("tester: got %d samples, want %d", len(samples), t.s))
	}
	counts := make(map[int]int, len(samples))
	for _, v := range samples {
		counts[v]++
	}
	u := 1 / float64(t.n)
	tv := 0.0
	for _, c := range counts {
		tv += math.Abs(float64(c)/float64(t.s) - u)
	}
	// Elements never seen contribute u each.
	tv += float64(t.n-len(counts)) * u
	tv /= 2
	return tv <= t.threshold
}

// Name implements Tester.
func (t *EmpiricalTV) Name() string {
	return fmt.Sprintf("empirical-tv(s=%d)", t.s)
}

// Threshold returns the TV acceptance cutoff.
func (t *EmpiricalTV) Threshold() float64 { return t.threshold }
