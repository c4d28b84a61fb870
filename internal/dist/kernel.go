package dist

import "github.com/unifdist/unifdist/internal/rng"

// This file holds the hot-path sampling kernels. Every experiment table is a
// Monte-Carlo sweep whose inner loop draws millions of samples; going through
// Distribution.Sample costs an interface dispatch per draw. Distributions
// that matter in the experiment hot path (Uniform, TwoBump, Histogram)
// implement BatchSampler with a concrete tight loop instead, and the generic
// SampleInto entry point dispatches once per batch rather than once per
// sample.
//
// The kernels draw through rng's batch draws (IntnInto, IntnFloat64Into),
// which keep the generator state in registers for a whole block, and pick
// between the two candidates of a two-draw sample without a branch. Every
// kernel consumes the generator exactly as the scalar Sample method does,
// so for a fixed seed the sample stream, and the generator state after it,
// are identical whichever path runs — batch sampling is a pure speedup,
// never a behavioural change. The scalar methods are the reference the
// kernels are pinned against.

// BatchSampler is implemented by distributions that can fill a buffer of
// i.i.d. samples without per-sample interface dispatch. Implementations must
// draw from r exactly as len(dst) successive Sample calls would.
type BatchSampler interface {
	// SampleInto fills dst with i.i.d. samples using r.
	SampleInto(dst []int, r *rng.RNG)
}

// SampleInto fills buf with i.i.d. samples from d, avoiding both the
// allocation of SampleN and — when d implements BatchSampler — the
// per-sample interface dispatch of the generic loop.
func SampleInto(d Distribution, buf []int, r *rng.RNG) {
	if b, ok := d.(BatchSampler); ok {
		b.SampleInto(buf, r)
		return
	}
	for i := range buf {
		buf[i] = d.Sample(r)
	}
}

// SampleInto implements BatchSampler: one IntnInto block draw.
func (u Uniform) SampleInto(dst []int, r *rng.RNG) {
	r.IntnInto(dst, u.n)
}

// pairChunk is how many (Intn, Float64) pairs a two-draw kernel stages at
// a time: the uniforms live in a stack array of this length.
const pairChunk = 64

// SampleInto implements BatchSampler: each chunk draws its (pair, uniform)
// pairs in one IntnFloat64Into block, then picks the heavy or light element
// of every pair without a branch. The cutoff (1+ε)/2 is hoisted out of the
// loop.
func (t *TwoBump) SampleInto(dst []int, r *rng.RNG) {
	cut := (1 + t.eps) / 2
	sign := t.sign
	var u [pairChunk]float64
	for len(dst) > 0 {
		block := dst[:min(len(dst), pairChunk)]
		r.IntnFloat64Into(block, u[:], t.n/2)
		for i, pair := range block {
			// Sample returns 2·pair when pickHeavy == sign[pair], else
			// 2·pair+1; both comparisons become flag-to-register moves.
			light := 1
			if (u[i] < cut) == sign[pair] {
				light = 0
			}
			block[i] = 2*pair + light
		}
		dst = dst[len(block):]
	}
}

// SampleInto implements BatchSampler: the alias-table lookup of Sample,
// with each chunk's (column, uniform) pairs drawn in one IntnFloat64Into
// block and the primary/alias pick made without a branch.
func (h *Histogram) SampleInto(dst []int, r *rng.RNG) {
	// alias is resliced to len(cut) so one bounds check covers both lookups.
	cut, alias := h.cut, h.alias[:len(h.cut)]
	var u [pairChunk]float64
	for len(dst) > 0 {
		block := dst[:min(len(dst), pairChunk)]
		r.IntnFloat64Into(block, u[:], len(cut))
		for i, j := range block {
			pick := alias[j]
			if u[i] < cut[j] {
				pick = j
			}
			block[i] = pick
		}
		dst = dst[len(block):]
	}
}
