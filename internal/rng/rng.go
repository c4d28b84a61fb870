// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the library.
//
// Reproducibility is a first-class requirement for the experiment harness:
// every trial, every simulated network node, and every sampler must be
// seedable so that experiment tables can be regenerated bit-for-bit. The
// standard library's math/rand/v2 generators are excellent, but they do not
// offer a documented, stable "split" operation for deriving independent
// child generators; this package does.
//
// The generator is xoshiro256++ seeded through splitmix64, the construction
// recommended by the xoshiro authors. Two ways derive child generators.
// Split seeds a child from the parent's next output, which keeps parent and
// child streams statistically independent for simulation purposes. At and
// SeedAt name the index-th child of a base seed with no parent state at
// all: child i takes the four splitmix64 outputs of its own counter block
// past base, so every (base, index) pair names one stream, distinct indices
// never share a state, and no child shares New(base)'s. Every parallel
// estimator and every (trial, node) vote stream is derived this way.
//
// The xoshiro256++ transition is written once, as step, which inlines into
// every draw. Hot loops use the batch draws IntnInto and IntnFloat64Into,
// which keep the four state words in registers for a whole block. Their
// contract is exact equivalence: a batch draw leaves dst, and the generator,
// exactly as the corresponding sequence of scalar Intn (and Float64) calls
// would, Lemire's rejection loop included, so the next draw after a block
// is the same whichever path filled it.
package rng

import "math/bits"

// RNG is a deterministic xoshiro256++ pseudo-random generator.
//
// The zero value is not usable; construct with New. RNG is not safe for
// concurrent use; give each goroutine its own generator via Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *RNG {
	var r RNG
	r.Seed(seed)
	return &r
}

// Split returns a new generator whose stream is independent of r's future
// output. Splitting advances r.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd1342543de82ef95)
}

// Seed re-initializes r in place from seed via splitmix64, exactly as New
// does: the four state words are the splitmix64 outputs for the counters
// seed+γ … seed+4γ, where γ is the splitmix64 increment. The four mixes are
// independent of one another, so they compute in parallel. Seed lets hot
// loops re-seed one generator instead of allocating a fresh RNG per work
// item.
func (r *RNG) Seed(seed uint64) {
	c1 := seed + gamma
	c2 := c1 + gamma
	c3 := c2 + gamma
	s0, s1, s2, s3 := mix64(c1), mix64(c2), mix64(c3), mix64(c3+gamma)
	// xoshiro256++ requires a nonzero state; splitmix64 output is zero for
	// all four words with probability 2^-256, but guard anyway.
	if s0|s1|s2|s3 == 0 {
		s0 = 0x9e3779b97f4a7c15
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// SeedAt re-initializes r in place as the index-th child stream of base:
// Seed(base + 4·(index+1)·γ). Its four state words are the splitmix64
// outputs for the counters base+(4·index+5)·γ … base+(4·index+8)·γ, so each
// index owns a block of four counters, disjoint from New(base)'s (base+γ …
// base+4γ) and from every other index's; γ is odd, so distinct counters
// give distinct states. Any (base, index) pair names the same stream on
// every call, and a reseed costs one splitmix pass. This is the indexed
// analogue of Split for deterministic parallel fan-out — worker goroutines
// derive trial i's generator from (base, i) with no shared state and no
// pre-split array.
func (r *RNG) SeedAt(base, index uint64) {
	r.Seed(base + 4*(index+1)*gamma)
}

// At returns the index-th child generator of base; see SeedAt.
func At(base, index uint64) *RNG {
	var r RNG
	r.SeedAt(base, index)
	return &r
}

// step is the xoshiro256++ transition: it returns the output for state
// (s0, s1, s2, s3) and the successor state. It is pure and small enough to
// inline, so a loop can keep the state in locals across many draws.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = bits.RotateLeft64(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	return out, s0, s1, s2, s3
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() (out uint64) {
	out, r.s0, r.s1, r.s2, r.s3 = step(r.s0, r.s1, r.s2, r.s3)
	return out
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed integer in [0, n) using Lemire's
// nearly-divisionless method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		hi, r.s0, r.s1, r.s2, r.s3 = retry(hi, lo, n, r.s0, r.s1, r.s2, r.s3)
	}
	return hi
}

// retry finishes Lemire's bounded draw once the first product (hi, lo) of
// a raw draw and n has lo < n: while lo falls below 2⁶⁴ mod n it draws
// again from the state. It returns the accepted high word and the advanced
// state. Every bounded draw, scalar or batch, rejects through here.
func retry(hi, lo, n, s0, s1, s2, s3 uint64) (v, n0, n1, n2, n3 uint64) {
	thresh := -n % n
	var x uint64
	for lo < thresh {
		x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		hi, lo = bits.Mul64(x, n)
	}
	return hi, s0, s1, s2, s3
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return unit(r.Uint64())
}

// unit maps a raw draw to [0, 1) through its top 53 bits.
func unit(x uint64) float64 {
	return float64(x>>11) * 0x1p-53
}

// IntnInto fills dst with len(dst) successive Intn(n) draws, keeping the
// generator state in registers for the whole block. It panics if n <= 0.
func (r *RNG) IntnInto(dst []int, n int) {
	if n <= 0 {
		panic("rng: IntnInto with non-positive n")
	}
	un := uint64(n)
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	var x uint64
	for i := range dst {
		x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		hi, lo := bits.Mul64(x, un)
		if lo < un {
			hi, s0, s1, s2, s3 = retry(hi, lo, un, s0, s1, s2, s3)
		}
		dst[i] = int(hi)
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// IntnFloat64Into fills idx and u with len(idx) successive (Intn(n),
// Float64()) pairs: idx[i] = Intn(n), then u[i] = Float64(). It keeps the
// generator state in registers for the whole block, and panics if n <= 0
// or len(u) < len(idx).
func (r *RNG) IntnFloat64Into(idx []int, u []float64, n int) {
	if n <= 0 {
		panic("rng: IntnFloat64Into with non-positive n")
	}
	if len(u) < len(idx) {
		panic("rng: IntnFloat64Into with len(u) < len(idx)")
	}
	u = u[:len(idx)]
	un := uint64(n)
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	var x uint64
	for i := range idx {
		x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		hi, lo := bits.Mul64(x, un)
		if lo < un {
			hi, s0, s1, s2, s3 = retry(hi, lo, un, s0, s1, s2, s3)
		}
		idx[i] = int(hi)
		x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		u[i] = unit(x)
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// Bool returns a uniformly distributed boolean.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}

// Perm returns a uniformly distributed permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// gamma is the splitmix64 increment γ: the generator's i-th output is
// mix64(seed + i·γ).
const gamma = 0x9e3779b97f4a7c15

// mix64 is splitmix64's output function on one counter value.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
