// Package stats provides the small statistics toolkit the uniformity-testing
// library builds on: KL divergence and the asymmetric-error information bound
// of Lemma 2.1, Wilson confidence intervals for the empirical error rates
// reported by the experiment harness, Lp norms of cost vectors (Section 4),
// and exact binomial tails.
package stats

import (
	"errors"
	"math"
)

// ErrInvalidProbability is returned when a probability argument lies outside
// [0, 1].
var ErrInvalidProbability = errors.New("stats: probability outside [0, 1]")

// KLBernoulli returns the Kullback–Leibler divergence D(B_p || B_q) between
// two Bernoulli distributions, in nats. By convention 0·log(0/·) = 0.
// It returns +Inf when q is 0 or 1 while p is not.
func KLBernoulli(p, q float64) (float64, error) {
	if p < 0 || p > 1 || q < 0 || q > 1 {
		return 0, ErrInvalidProbability
	}
	return klTerm(p, q) + klTerm(1-p, 1-q), nil
}

func klTerm(a, b float64) float64 {
	switch {
	case a == 0:
		return 0
	case b == 0:
		return math.Inf(1)
	default:
		return a * math.Log(a/b)
	}
}

// KLGapLowerBound returns the paper's Lemma 2.1 lower bound
//
//	D(B_{1-δ} || B_{1-τδ}) ≥ (δ/4)·(τ − 1 − ln τ)
//
// for δ ∈ (0, 1/4) and τ ∈ (1, 1/δ). This is the minimum information any
// (δ, τ)-gap tester must extract; the experiment harness verifies the
// inequality numerically over a grid and testing/quick verifies it over
// random parameters.
func KLGapLowerBound(delta, tau float64) float64 {
	return delta / 4 * GapF(tau)
}

// GapF is the function f(τ) = τ − 1 − ln τ from Section 7. It is zero at
// τ = 1 and strictly increasing for τ > 1.
func GapF(tau float64) float64 {
	return tau - 1 - math.Log(tau)
}

// WilsonInterval returns the Wilson score interval for an observed
// proportion of successes among trials at confidence parameter z (e.g.
// z = 1.96 for 95%). It is well behaved near 0 and 1, where the experiment
// harness's error-rate estimates live.
func WilsonInterval(successes, trials int, z float64) (lo, hi float64) {
	if trials <= 0 {
		return 0, 1
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// LpNorm returns ‖x‖_p for p ≥ 1. Section 4 expresses asymmetric-cost
// bounds in terms of ‖T‖₂ and ‖T‖₂ₘ of the inverse-cost vector T.
func LpNorm(x []float64, p float64) float64 {
	if p < 1 {
		panic("stats: LpNorm requires p >= 1")
	}
	if len(x) == 0 {
		return 0
	}
	if math.IsInf(p, 1) {
		max := 0.0
		for _, v := range x {
			if a := math.Abs(v); a > max {
				max = a
			}
		}
		return max
	}
	// Scale by the max to avoid overflow for large p.
	max := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	if max == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range x {
		sum += math.Pow(math.Abs(v)/max, p)
	}
	return max * math.Pow(sum, 1/p)
}

// BinomialTail returns Pr[Bin(n, p) ≥ k] computed by direct summation in
// log space. It is exact up to floating-point rounding.
func BinomialTail(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	logP, logQ := math.Log(p), math.Log1p(-p)
	total := 0.0
	for i := k; i <= n; i++ {
		total += math.Exp(logChoose(n, i) + float64(i)*logP + float64(n-i)*logQ)
	}
	if total > 1 {
		total = 1
	}
	return total
}

// logChoose returns ln C(n, k) via log-gamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}
