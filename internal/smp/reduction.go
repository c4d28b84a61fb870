package smp

import (
	"fmt"

	"github.com/unifdist/unifdist/internal/ecc"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/tester"
)

// This file implements the reduction behind Theorem 7.1 ([Blais–Canonne–
// Gur 2017]): a q-sample uniformity tester yields a simultaneous Equality
// protocol with cost q·log n. It is the bridge the paper crosses to turn
// its Equality lower bound (Theorem 7.2) into the uniformity-testing lower
// bound (Corollary 7.4); running it forward demonstrates the connection
// operationally and is measured in experiment E13.
//
// Construction. Both players encode their inputs with the distance-1/6
// code C into m bits and define distributions on [2m]:
//
//	µ_X(2i + C(X)_i)     = 1/m   (Alice puts mass on cell "bit value"),
//	ν_Y(2i + 1 − C(Y)_i) = 1/m   (Bob puts mass on the complement cell).
//
// If X = Y the mixture (µ_X + ν_Y)/2 is exactly uniform on [2m]: each
// pair {2i, 2i+1} receives its two masses on opposite cells. If X ≠ Y, at
// least m/6 coordinates place both masses on the same cell, leaving the
// sibling cell empty, so the mixture is at least 1/6-far from uniform in
// L1. Each player samples its own distribution with private randomness
// and sends the samples (⌈log 2m⌉ bits each); the referee interleaves the
// two streams and feeds them to the uniformity tester.

// EqualityFromTester is an SMP Equality protocol built from a black-box
// uniformity tester via the Theorem 7.1 reduction.
type EqualityFromTester struct {
	nBits int
	code  *ecc.Code
	m     int // codeword length; the tester's domain is 2m
	build func(domain int) (tester.Tester, error)
}

// NewEqualityFromTester wraps a tester constructor. The constructor
// receives the reduction's domain size 2m and must return a tester whose
// distance parameter is at most the reduction's gap 1/6 (wired by the
// caller).
func NewEqualityFromTester(nBits int, build func(domain int) (tester.Tester, error)) (*EqualityFromTester, error) {
	if nBits < 1 {
		return nil, fmt.Errorf("smp: nBits=%d < 1", nBits)
	}
	if build == nil {
		return nil, fmt.Errorf("smp: nil tester constructor")
	}
	code, err := ecc.NewCode(nBits)
	if err != nil {
		return nil, err
	}
	return &EqualityFromTester{
		nBits: nBits,
		code:  code,
		m:     code.CodeBits(),
		build: build,
	}, nil
}

// Domain returns the tester's domain size 2m.
func (e *EqualityFromTester) Domain() int { return 2 * e.m }

// Gap returns the guaranteed L1 distance of the mixture from uniform when
// X ≠ Y: 2·d/(2m) ≥ 1/6 for the concatenated code.
func (e *EqualityFromTester) Gap() float64 {
	return float64(e.code.MinDistance()) / float64(e.m)
}

// MessageBits returns the per-player cost: q/2 samples of ⌈log 2m⌉ bits,
// where q is the tester's sample complexity — Theorem 7.1's q·log n.
func (e *EqualityFromTester) MessageBits() (int, error) {
	t, err := e.build(e.Domain())
	if err != nil {
		return 0, err
	}
	logDomain := 1
	for 1<<logDomain < e.Domain() {
		logDomain++
	}
	q := t.SampleSize()
	return (q + 1) / 2 * logDomain, nil
}

// Run executes the protocol: each player samples its derived distribution
// and the referee runs the tester on the interleaved streams, accepting
// iff the tester says "uniform".
func (e *EqualityFromTester) Run(x, y []byte, r *rng.RNG) (bool, error) {
	t, err := e.build(e.Domain())
	if err != nil {
		return false, err
	}
	cx, err := e.code.Encode(x)
	if err != nil {
		return false, err
	}
	cy, err := e.code.Encode(y)
	if err != nil {
		return false, err
	}
	samples := make([]int, t.SampleSize())
	e.fillStream(samples, cx, cy, r)
	return t.Test(samples, nil), nil
}

// fillStream fills samples with the referee's stream for codewords cx and
// cy: even positions from Alice's µ_X, odd from Bob's ν_Y. (A uniformly
// random interleaving would match the mixture exactly; the referee's
// alternating merge is the standard stratified surrogate and only reduces
// the variance of the per-pair counts.)
func (e *EqualityFromTester) fillStream(samples []int, cx, cy []byte, r *rng.RNG) {
	for i := range samples {
		coord := r.Intn(e.m)
		if i%2 == 0 {
			bit := 0
			if ecc.Bit(cx, coord) {
				bit = 1
			}
			samples[i] = 2*coord + bit
		} else {
			bit := 1
			if ecc.Bit(cy, coord) {
				bit = 0
			}
			samples[i] = 2*coord + bit
		}
	}
}
