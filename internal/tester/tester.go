// Package tester implements the centralized uniformity testers of the
// paper: the single-collision (δ, 1+γε²)-gap tester A_δ of Section 3.1 and
// its m-repetition gap amplification of Section 3.2.1, both one
// BlockCollision, and the classical collision-counting baseline
// (Paninski-style, Θ(√n/ε²) samples) used for comparison in experiment E10.
//
// A tester consumes a slice of samples from the unknown distribution and
// outputs accept ("looks uniform") or reject. Parameter solvers translate
// the paper's displayed inequalities into concrete integer sample counts and
// report whether the paper's rigorous sufficient conditions
// (δ < ε⁴/64, n > 64/(ε⁴δ), slack γ ≥ 1/2) hold for the chosen parameters.
package tester

import (
	"fmt"
	"math"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
)

// Tester distinguishes the uniform distribution from ε-far distributions
// given i.i.d. samples.
type Tester interface {
	// SampleSize returns the number of samples Test expects.
	SampleSize() int
	// Test returns true to accept ("uniform") and false to reject, using
	// sc's reusable buffers for the collision statistics; a nil sc
	// allocates. It panics if len(samples) != SampleSize().
	Test(samples []int, sc *dist.CollisionScratch) bool
	// Name returns a short description for tables and logs.
	Name() string
}

// Run draws the tester's required samples from d and returns its verdict.
func Run(t Tester, d dist.Distribution, r *rng.RNG) bool {
	return t.Test(dist.SampleN(d, t.SampleSize(), r), nil)
}

// GapParams holds the resolved parameters of a single-collision gap tester.
type GapParams struct {
	// N is the domain size.
	N int
	// Eps is the L1 distance parameter.
	Eps float64
	// S is the integer number of samples, chosen so that C(S,2)/N ≈ δ.
	S int
	// Delta is the effective completeness error C(S,2)/N realized by S.
	Delta float64
	// Gamma is the slack term of eq. (1); the tester's gap is 1 + Gamma·ε².
	Gamma float64
	// Alpha is the soundness gap 1 + Gamma·ε² (meaningful when Gamma > 0).
	Alpha float64
	// Rigorous reports whether the paper's sufficient conditions for
	// γ ≥ 1/2 hold: δ < ε⁴/64 and n > 64/(ε⁴δ).
	Rigorous bool
}

// SolveGap computes the sample count and realized parameters of the
// single-collision tester A_δ on domain size n with target completeness
// error delta and distance parameter eps. The returned Delta is the
// realized (not requested) completeness error.
func SolveGap(n int, delta, eps float64) (GapParams, error) {
	if n < 2 {
		return GapParams{}, fmt.Errorf("tester: domain size %d too small", n)
	}
	if delta <= 0 || delta >= 1 {
		return GapParams{}, fmt.Errorf("tester: delta %v outside (0, 1)", delta)
	}
	if eps <= 0 || eps > 2 {
		return GapParams{}, fmt.Errorf("tester: eps %v outside (0, 2]", eps)
	}
	// s(s−1) = 2δn  ⇒  s = (1 + √(1+8δn))/2, rounded to the nearest
	// integer ≥ 2.
	s := int(math.Round((1 + math.Sqrt(1+8*delta*float64(n))) / 2))
	if s < 2 {
		s = 2
	}
	p := GapParams{N: n, Eps: eps, S: s}
	p.Delta = float64(s) * float64(s-1) / (2 * float64(n))
	p.Gamma = gapGamma(s, p.Delta, eps)
	p.Alpha = 1 + p.Gamma*eps*eps
	e4 := math.Pow(eps, 4)
	p.Rigorous = p.Delta < e4/64 && float64(n) > 64/(e4*p.Delta) && p.Gamma >= 0.5
	return p, nil
}

// gapGamma evaluates the slack term of eq. (1):
//
//	γ = 1 − 1/s − √(2δ(1+ε²)) − (1/s + √(2δ(1+ε²)))/ε².
func gapGamma(s int, delta, eps float64) float64 {
	root := math.Sqrt(2 * delta * (1 + eps*eps))
	inv := 1 / float64(s)
	return 1 - inv - root - (inv+root)/(eps*eps)
}

// UniformNoCollisionProb returns the exact probability that s uniform
// samples from a domain of size n are pairwise distinct:
// Π_{i=1}^{s−1}(1 − i/n). One minus this is the exact completeness error of
// the single-collision tester (the paper bounds it by δ via Markov).
func UniformNoCollisionProb(n, s int) float64 {
	if s <= 1 {
		return 1
	}
	if s > n {
		return 0
	}
	p := 1.0
	for i := 1; i < s; i++ {
		p *= 1 - float64(i)/float64(n)
	}
	return p
}

// FarRejectLowerBound returns a rigorous lower bound on the probability
// that the single-collision tester rejects (sees a collision in) s samples
// from any distribution ε-far from uniform: combining Lemma 3.2
// (χ(µ) > (1+ε²)/n) with Lemma 3.3 ([Wiener]: Pr[no collision] ≤
// e^{−t}(1+t) for t = (s−1)√χ) gives Pr[reject] ≥ 1 − e^{−t}(1+t).
func FarRejectLowerBound(n, s int, eps float64) float64 {
	if s <= 1 {
		return 0
	}
	t := float64(s-1) * math.Sqrt((1+eps*eps)/float64(n))
	lb := 1 - math.Exp(-t)*(1+t)
	if lb < 0 {
		return 0
	}
	return lb
}

// FarRejectPoisson returns the Poisson-approximated collision probability
// for a distribution whose collision probability is exactly (1+ε²)/n — the
// canonical two-bump ε-far instance: 1 − exp(−C(s,2)(1+ε²)/n). This is the
// calibrated (non-worst-case) model used by the experiment harness's
// calibrated parameter mode; see DESIGN.md §3.1.
func FarRejectPoisson(n, s int, eps float64) float64 {
	pairs := float64(s) * float64(s-1) / 2
	return 1 - math.Exp(-pairs*(1+eps*eps)/float64(n))
}

// BlockCollision is the statistic every tester of the paper votes with:
// it splits its s samples into m blocks of ⌊s/m⌋ (a remainder is unused)
// and rejects iff every block holds a repeat. A block of fewer than two
// samples cannot collide, so such a tester accepts.
//
// NewSingleCollision builds A_δ of Section 3.1 (m = 1) and NewAmplified its
// m-repetition amplification of Section 3.2.1; both solve the block size
// from δ. NewBlockCollision builds the virtual node whose sample count a
// protocol run fixes: the CONGEST tester's package of τ tokens (m = 1,
// Theorem 1.4) and the LOCAL tester's MIS node with the samples it
// gathered (Section 6).
type BlockCollision struct {
	n, s, m int
	// gap is the solved parameters of one block; it is zero for
	// NewBlockCollision's protocol-fixed nodes.
	gap GapParams
}

// NewSingleCollision builds A_δ for domain size n, completeness error delta
// and distance parameter eps: draw s samples with s(s−1) = 2δn and accept
// iff they are pairwise distinct. It accepts the uniform distribution with
// probability ≥ 1−δ and any ε-far distribution with probability
// ≤ 1−(1+γε²)δ (Lemma 3.4).
func NewSingleCollision(n int, delta, eps float64) (*BlockCollision, error) {
	return NewAmplified(n, delta, eps, 1)
}

// NewAmplified builds the m-repetition amplification of A_deltaPrime: m
// independent copies, rejecting iff all m reject. If each copy is a
// (δ′, α)-gap tester, the result is a (δ′^m, α^m)-gap tester.
func NewAmplified(n int, deltaPrime, eps float64, m int) (*BlockCollision, error) {
	if m < 1 {
		return nil, fmt.Errorf("tester: repetitions m=%d < 1", m)
	}
	p, err := SolveGap(n, deltaPrime, eps)
	if err != nil {
		return nil, err
	}
	return &BlockCollision{n: n, s: m * p.S, m: m, gap: p}, nil
}

// NewBlockCollision returns the m-block vote over s samples from a domain
// of size n; m < 1 counts as one block.
func NewBlockCollision(n, s, m int) *BlockCollision {
	return &BlockCollision{n: n, s: s, m: max(m, 1)}
}

// Params returns the solved parameters of one block. They are zero for
// NewBlockCollision, and so are CompletenessError and Gap, which derive
// from them.
func (t *BlockCollision) Params() GapParams { return t.gap }

// Repetitions returns m.
func (t *BlockCollision) Repetitions() int { return t.m }

// CompletenessError returns δ′^m, the probability bound on rejecting the
// uniform distribution.
func (t *BlockCollision) CompletenessError() float64 {
	return math.Pow(t.gap.Delta, float64(t.m))
}

// Gap returns α^m = (1+γε²)^m, the amplified soundness gap.
func (t *BlockCollision) Gap() float64 {
	return math.Pow(t.gap.Alpha, float64(t.m))
}

// SampleSize implements Tester.
func (t *BlockCollision) SampleSize() int { return t.s }

// Test rejects iff every block of ⌊s/m⌋ ≥ 2 samples contains a collision.
func (t *BlockCollision) Test(samples []int, sc *dist.CollisionScratch) bool {
	if len(samples) != t.s {
		panic(fmt.Sprintf("tester: got %d samples, want %d", len(samples), t.s))
	}
	block := t.s / t.m
	if block < 2 {
		return true
	}
	for i := 0; i < t.m; i++ {
		if !sc.HasCollision(t.n, samples[i*block:(i+1)*block]) {
			return true // some block saw no collision ⇒ accept
		}
	}
	return false
}

// Name implements Tester.
func (t *BlockCollision) Name() string {
	return fmt.Sprintf("block-collision(s=%d,m=%d)", t.s, t.m)
}

// CollisionCounting is the classical centralized baseline [Paninski 2008;
// Goldreich–Ron]: draw s = Θ(√n/ε²) samples, count colliding pairs, and
// accept iff the count is below a threshold placed between the uniform
// expectation C(s,2)/n and the ε-far expectation C(s,2)(1+ε²)/n.
type CollisionCounting struct {
	n         int
	s         int
	eps       float64
	threshold float64
}

// BaselineSampleSize returns the baseline's sample count c·√n/ε² (c = 4,
// calibrated so the tester's error is ≤ 1/3 across the experiment regimes).
func BaselineSampleSize(n int, eps float64) int {
	s := int(math.Ceil(4 * math.Sqrt(float64(n)) / (eps * eps)))
	if s < 2 {
		s = 2
	}
	return s
}

// NewCollisionCounting builds the baseline tester for domain size n and
// distance eps, using s samples. If s <= 0, BaselineSampleSize is used.
func NewCollisionCounting(n int, eps float64, s int) (*CollisionCounting, error) {
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
	pairs := float64(s) * float64(s-1) / 2
	threshold := pairs * (1 + eps*eps/2) / float64(n)
	return &CollisionCounting{n: n, s: s, eps: eps, threshold: threshold}, nil
}

// Threshold returns the collision-count acceptance threshold.
func (t *CollisionCounting) Threshold() float64 { return t.threshold }

// SampleSize implements Tester.
func (t *CollisionCounting) SampleSize() int { return t.s }

// Test counts colliding pairs and accepts iff the count is at most the
// threshold.
func (t *CollisionCounting) Test(samples []int, sc *dist.CollisionScratch) bool {
	if len(samples) != t.s {
		panic(fmt.Sprintf("tester: got %d samples, want %d", len(samples), t.s))
	}
	return float64(sc.CountCollisions(t.n, samples)) <= t.threshold
}

// Name implements Tester.
func (t *CollisionCounting) Name() string {
	return fmt.Sprintf("collision-counting(s=%d)", t.s)
}

// EstimateRejectProb runs t on trials independent sample sets from d and
// returns the empirical rejection probability. Sampling goes through the
// batch kernels and the statistic reuses one scratch across all trials.
func EstimateRejectProb(t Tester, d dist.Distribution, trials int, r *rng.RNG) float64 {
	rejects := 0
	buf := make([]int, t.SampleSize())
	sc := dist.NewCollisionScratch()
	for i := 0; i < trials; i++ {
		dist.SampleInto(d, buf, r)
		if !t.Test(buf, sc) {
			rejects++
		}
	}
	return float64(rejects) / float64(trials)
}
