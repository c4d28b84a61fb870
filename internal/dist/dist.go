// Package dist provides the discrete distributions, samplers and distance
// measures used by the uniformity testers.
//
// Every distribution lives on the domain {0, …, n−1} (the paper's
// {1, …, n}, zero-indexed). Distributions are immutable after construction
// and safe for concurrent sampling as long as each goroutine uses its own
// *rng.RNG.
//
// The package includes the canonical ε-far instance family from the
// uniformity-testing literature — the "two-bump" (Paninski) distribution
// that perturbs paired elements by ±ε/n — as well as Zipf, point-mass
// mixtures and arbitrary histograms with O(1) alias-method sampling.
package dist

import (
	"fmt"
	"math"

	"github.com/unifdist/unifdist/internal/rng"
)

// Distribution is a discrete probability distribution on {0, …, N()−1}.
type Distribution interface {
	// N returns the domain size n.
	N() int
	// Prob returns the probability of element i. It panics if i is out of
	// range.
	Prob(i int) float64
	// Sample draws one element using r.
	Sample(r *rng.RNG) int
	// Name returns a short human-readable description for tables and logs.
	Name() string
}

// SampleN draws s i.i.d. samples from d using r. It dispatches through
// SampleInto, so distributions implementing BatchSampler pay no per-sample
// interface call.
func SampleN(d Distribution, s int, r *rng.RNG) []int {
	out := make([]int, s)
	SampleInto(d, out, r)
	return out
}

// Uniform is the uniform distribution U(n) on {0, …, n−1}.
type Uniform struct {
	n int
}

// NewUniform returns U(n). It panics if n <= 0.
func NewUniform(n int) Uniform {
	if n <= 0 {
		panic("dist: NewUniform requires n > 0")
	}
	return Uniform{n: n}
}

// N returns the domain size.
func (u Uniform) N() int { return u.n }

// Prob returns 1/n.
func (u Uniform) Prob(i int) float64 {
	checkIndex(i, u.n)
	return 1 / float64(u.n)
}

// Sample draws a uniform element.
func (u Uniform) Sample(r *rng.RNG) int { return r.Intn(u.n) }

// Name implements Distribution.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(n=%d)", u.n) }

// TwoBump is the paired-perturbation ("Paninski") distribution: the domain
// is split into n/2 consecutive pairs, and within each pair one element has
// probability (1+ε)/n and the other (1−ε)/n. Its L1 distance from uniform
// is exactly ε, making it the canonical ε-far instance; the direction of
// each perturbation is chosen by a sign pattern fixed at construction.
type TwoBump struct {
	n    int
	eps  float64
	sign []bool // sign[j] == true means pair j's first element gets +ε/n
}

// NewTwoBump returns a two-bump distribution on an even domain of size n
// with distance parameter eps ∈ (0, 1], using a uniformly random sign
// pattern derived from seed.
func NewTwoBump(n int, eps float64, seed uint64) *TwoBump {
	if n <= 0 || n%2 != 0 {
		panic("dist: NewTwoBump requires even n > 0")
	}
	if eps <= 0 || eps > 1 {
		panic("dist: NewTwoBump requires eps in (0, 1]")
	}
	r := rng.New(seed)
	sign := make([]bool, n/2)
	for j := range sign {
		sign[j] = r.Bool()
	}
	return &TwoBump{n: n, eps: eps, sign: sign}
}

// N returns the domain size.
func (t *TwoBump) N() int { return t.n }

// Prob returns (1±ε)/n depending on the pair's sign.
func (t *TwoBump) Prob(i int) float64 {
	checkIndex(i, t.n)
	up := t.sign[i/2] == (i%2 == 0)
	if up {
		return (1 + t.eps) / float64(t.n)
	}
	return (1 - t.eps) / float64(t.n)
}

// Sample draws an element: first a uniform pair, then the heavy element of
// the pair with probability (1+ε)/2.
func (t *TwoBump) Sample(r *rng.RNG) int {
	pair := r.Intn(t.n / 2)
	heavyFirst := t.sign[pair]
	pickHeavy := r.Float64() < (1+t.eps)/2
	if pickHeavy == heavyFirst {
		return 2 * pair
	}
	return 2*pair + 1
}

// Name implements Distribution.
func (t *TwoBump) Name() string {
	return fmt.Sprintf("twobump(n=%d,eps=%.3g)", t.n, t.eps)
}

// Histogram is an arbitrary distribution given by an explicit probability
// vector, sampled in O(1) with Vose's alias method.
type Histogram struct {
	p     []float64
	alias []int
	cut   []float64
	name  string
}

// NewHistogram returns a distribution with the given probability vector.
// The vector is copied and normalized; it must be non-empty, non-negative,
// and have positive total mass.
func NewHistogram(p []float64, name string) (*Histogram, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("dist: empty histogram")
	}
	total := 0.0
	for i, v := range p {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("dist: invalid mass %v at index %d", v, i)
		}
		total += v
	}
	if total <= 0 {
		return nil, fmt.Errorf("dist: zero total mass")
	}
	n := len(p)
	h := &Histogram{
		p:     make([]float64, n),
		alias: make([]int, n),
		cut:   make([]float64, n),
		name:  name,
	}
	for i, v := range p {
		h.p[i] = v / total
	}
	// Vose's alias method.
	scaled := make([]float64, n)
	var small, large []int
	for i, v := range h.p {
		scaled[i] = v * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		h.cut[s] = scaled[s]
		h.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		h.cut[i] = 1
		h.alias[i] = i
	}
	for _, i := range small {
		h.cut[i] = 1
		h.alias[i] = i
	}
	return h, nil
}

// MustHistogram is NewHistogram that panics on error, for literals in tests
// and examples.
func MustHistogram(p []float64, name string) *Histogram {
	h, err := NewHistogram(p, name)
	if err != nil {
		panic(err)
	}
	return h
}

// N returns the domain size.
func (h *Histogram) N() int { return len(h.p) }

// Prob returns the normalized probability of element i.
func (h *Histogram) Prob(i int) float64 {
	checkIndex(i, len(h.p))
	return h.p[i]
}

// Sample draws an element in O(1) via the alias table.
func (h *Histogram) Sample(r *rng.RNG) int {
	i := r.Intn(len(h.p))
	if r.Float64() < h.cut[i] {
		return i
	}
	return h.alias[i]
}

// Name implements Distribution.
func (h *Histogram) Name() string {
	if h.name != "" {
		return h.name
	}
	return fmt.Sprintf("histogram(n=%d)", len(h.p))
}

// NewZipf returns a Zipf distribution on {0, …, n−1} with exponent s > 0:
// Prob(i) ∝ 1/(i+1)^s. Heavy-tailed and far from uniform for large s, it is
// used as a "realistic skew" instance in the examples and experiments.
func NewZipf(n int, s float64) *Histogram {
	if n <= 0 {
		panic("dist: NewZipf requires n > 0")
	}
	if s <= 0 {
		panic("dist: NewZipf requires s > 0")
	}
	p := make([]float64, n)
	for i := range p {
		p[i] = math.Pow(float64(i+1), -s)
	}
	return MustHistogram(p, fmt.Sprintf("zipf(n=%d,s=%.3g)", n, s))
}

// NewPointMassMixture returns (1−w)·U(n) + w·δ_target: uniform with an extra
// point mass of weight w at element target. Its L1 distance from uniform is
// 2w(1 − 1/n).
func NewPointMassMixture(n, target int, w float64) *Histogram {
	if target < 0 || target >= n {
		panic("dist: point mass target out of range")
	}
	if w < 0 || w > 1 {
		panic("dist: mixture weight outside [0, 1]")
	}
	p := make([]float64, n)
	base := (1 - w) / float64(n)
	for i := range p {
		p[i] = base
	}
	p[target] += w
	return MustHistogram(p, fmt.Sprintf("uniform+pointmass(n=%d,w=%.3g)", n, w))
}

// NewHalfSupport returns the uniform distribution on the first ⌈n/2⌉
// elements of a domain of size n. Its L1 distance from U(n) is ~1.
func NewHalfSupport(n int) *Histogram {
	if n <= 1 {
		panic("dist: NewHalfSupport requires n > 1")
	}
	p := make([]float64, n)
	half := (n + 1) / 2
	for i := 0; i < half; i++ {
		p[i] = 1
	}
	return MustHistogram(p, fmt.Sprintf("halfsupport(n=%d)", n))
}

// ByName builds the command-line test input called name on a domain of
// size n: "uniform", "twobump" (ε-far, eps outside (0, 1] taken as 1,
// bump placement drawn from seed), "zipf" (exponent 1.2) or
// "halfsupport".
func ByName(name string, n int, eps float64, seed uint64) (Distribution, error) {
	switch name {
	case "uniform":
		return NewUniform(n), nil
	case "twobump":
		if eps <= 0 || eps > 1 {
			eps = 1
		}
		return NewTwoBump(n, eps, seed), nil
	case "zipf":
		return NewZipf(n, 1.2), nil
	case "halfsupport":
		return NewHalfSupport(n), nil
	default:
		return nil, fmt.Errorf("unknown distribution %q", name)
	}
}

// L1FromUniform returns Σ_i |µ(i) − 1/n|, the L1 distance between d and the
// uniform distribution on its domain.
func L1FromUniform(d Distribution) float64 {
	n := d.N()
	u := 1 / float64(n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Abs(d.Prob(i) - u)
	}
	return total
}

// L1 returns the L1 distance Σ_i |p(i) − q(i)| between two distributions on
// the same domain. It panics if the domains differ.
func L1(p, q Distribution) float64 {
	if p.N() != q.N() {
		panic("dist: L1 over mismatched domains")
	}
	total := 0.0
	for i := 0; i < p.N(); i++ {
		total += math.Abs(p.Prob(i) - q.Prob(i))
	}
	return total
}

// TV returns the total-variation distance, L1/2.
func TV(p, q Distribution) float64 { return L1(p, q) / 2 }

// CollisionProbability returns χ(µ) = Σ_i µ(i)², the probability that two
// independent samples collide. Lemma 3.2: χ(µ) > (1+ε²)/n whenever µ is
// ε-far from uniform.
func CollisionProbability(d Distribution) float64 {
	total := 0.0
	for i := 0; i < d.N(); i++ {
		v := d.Prob(i)
		total += v * v
	}
	return total
}

// EmpiricalHistogram counts occurrences of each domain element in samples.
func EmpiricalHistogram(n int, samples []int) []int {
	counts := make([]int, n)
	for _, s := range samples {
		counts[s]++
	}
	return counts
}

// HasCollision reports whether samples contains two equal elements. This is
// the single-collision statistic Z of Section 3.1. It sorts a copy; hot
// loops should use CollisionScratch.HasCollision, which allocates nothing.
func HasCollision(samples []int) bool {
	switch len(samples) {
	case 0, 1:
		return false
	case 2:
		return samples[0] == samples[1]
	}
	cp := sortedCopy(samples)
	for i := 1; i < len(cp); i++ {
		if cp[i] == cp[i-1] {
			return true
		}
	}
	return false
}

// CountCollisions returns the number of colliding pairs Σ_i C(c_i, 2) over
// the sample multiset — the statistic of the Paninski-style collision
// counting baseline. It sorts a copy; hot loops should use
// CollisionScratch.CountCollisions, which allocates nothing.
func CountCollisions(samples []int) int {
	if len(samples) < 2 {
		return 0
	}
	return countSortedCollisions(sortedCopy(samples))
}

func checkIndex(i, n int) {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("dist: index %d out of domain [0, %d)", i, n))
	}
}
