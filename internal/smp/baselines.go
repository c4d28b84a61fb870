package smp

import (
	"fmt"

	"github.com/unifdist/unifdist/internal/ecc"
	"github.com/unifdist/unifdist/internal/rng"
)

// This file holds the comparison protocols for experiment E14: the trivial
// deterministic protocol (send everything) and the classical
// constant-error simultaneous protocol in the style of Ambainis [2]
// (each player sends one random codeword cell; the referee compares when
// the cells coincide), against which Lemma 7.3's asymmetric-error chunk
// protocol is measured.

// TrivialEquality is the deterministic SMP protocol: both players send
// their full input and the referee compares. Zero error, n bits per
// message.
type TrivialEquality struct {
	nBits int
}

// NewTrivialEquality builds the protocol for nBits-bit inputs.
func NewTrivialEquality(nBits int) (*TrivialEquality, error) {
	if nBits < 1 {
		return nil, fmt.Errorf("smp: nBits=%d < 1", nBits)
	}
	return &TrivialEquality{nBits: nBits}, nil
}

// MessageBits returns the per-player cost n.
func (t *TrivialEquality) MessageBits() int { return t.nBits }

// Run compares the inputs exactly.
func (t *TrivialEquality) Run(x, y []byte, _ *rng.RNG) (bool, error) {
	want := (t.nBits + 7) / 8
	if len(x) < want || len(y) < want {
		return false, fmt.Errorf("smp: inputs shorter than %d bytes", want)
	}
	for i := 0; i < t.nBits; i++ {
		if ecc.Bit(x, i) != ecc.Bit(y, i) {
			return false, nil
		}
	}
	return true, nil
}

// SingleCellEquality is the classical constant-gap private-coin protocol:
// each player sends one uniformly random cell (index, bit) of its
// codeword; when the indices coincide (probability 1/m) the referee
// compares the bits. Repeating r times drives Pr[detect | X≠Y] to
// ≈ 1 − (1 − d/(6m)·…)^r; with r = Θ(√m) repetitions arranged as in [2]
// the classical O(√n) bound is recovered. Here the repetitions parameter
// is explicit so E14 can chart the error/cost trade-off.
type SingleCellEquality struct {
	nBits int
	code  *ecc.Code
	reps  int
}

// NewSingleCellEquality builds the protocol with the given number of
// independent cell probes per player.
func NewSingleCellEquality(nBits, reps int) (*SingleCellEquality, error) {
	if nBits < 1 {
		return nil, fmt.Errorf("smp: nBits=%d < 1", nBits)
	}
	if reps < 1 {
		return nil, fmt.Errorf("smp: reps=%d < 1", reps)
	}
	code, err := ecc.NewCode(nBits)
	if err != nil {
		return nil, err
	}
	return &SingleCellEquality{nBits: nBits, code: code, reps: reps}, nil
}

// MessageBits returns the per-player cost: reps × (index + bit).
func (s *SingleCellEquality) MessageBits() int {
	idxBits := 1
	for 1<<idxBits < s.code.CodeBits() {
		idxBits++
	}
	return s.reps * (idxBits + 1)
}

// Run executes the protocol: the players probe reps random cells each; the
// referee rejects iff some coinciding index carries differing bits.
func (s *SingleCellEquality) Run(x, y []byte, r *rng.RNG) (bool, error) {
	cx, err := s.code.Encode(x)
	if err != nil {
		return false, err
	}
	cy, err := s.code.Encode(y)
	if err != nil {
		return false, err
	}
	m := s.code.CodeBits()
	type probe struct {
		idx int
		bit bool
	}
	alice := make([]probe, s.reps)
	bob := make([]probe, s.reps)
	for i := 0; i < s.reps; i++ {
		ai := r.Intn(m)
		bi := r.Intn(m)
		alice[i] = probe{idx: ai, bit: ecc.Bit(cx, ai)}
		bob[i] = probe{idx: bi, bit: ecc.Bit(cy, bi)}
	}
	for _, a := range alice {
		for _, b := range bob {
			if a.idx == b.idx && a.bit != b.bit {
				return false, nil
			}
		}
	}
	return true, nil
}
