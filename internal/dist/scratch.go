package dist

import (
	"slices"
	"sort"
)

// This file holds the allocation-free collision statistics. The testers'
// inner loop asks one of two questions about a sample block — "is there any
// repeat?" (the single-collision statistic Z of Section 3.1) or "how many
// colliding pairs?" (the Paninski-style counting baseline) — millions of
// times per experiment. A CollisionScratch answers both with zero
// allocations per call by reusing one of two structures:
//
//   - for small domains, a domain-indexed epoch-stamp array: stamp[v] == the
//     current epoch means v was already seen this call, so one O(s) pass
//     detects and counts repeats without clearing anything between calls;
//   - for large domains (where an O(n) stamp array would not pay for
//     itself), a reusable sort buffer: copy, sort, scan adjacent equals.
//
// The package-level HasCollision and CountCollisions remain as the
// convenience entry points; they now use the sort strategy on a fresh buffer
// instead of a hash map, which is both faster and lighter for one-off calls.

// maxStampDomain bounds the domain size for which the scratch keeps an O(n)
// stamp array (2 MiB of uint16 at the bound). Above it, collision checks
// fall back to sorting in a reusable buffer.
const maxStampDomain = 1 << 20

// CollisionScratch is reusable working memory for HasCollision and
// CountCollisions. The zero value is ready to use; a nil *CollisionScratch
// is also valid and falls back to the allocating package-level functions.
// A scratch is not safe for concurrent use — give each goroutine its own.
type CollisionScratch struct {
	stamps []uint16
	epoch  uint16
	buf    []int
}

// NewCollisionScratch returns an empty scratch. Buffers grow on first use
// and are retained across calls.
func NewCollisionScratch() *CollisionScratch { return &CollisionScratch{} }

// nextEpoch advances the epoch, clearing the stamp array on wrap-around
// (once every 65,535 calls) so stale stamps from an earlier cycle cannot
// alias. Sixteen-bit stamps halve the array the probes walk; the clear
// costs one pass over it per 65,535 calls.
func (sc *CollisionScratch) nextEpoch() uint16 {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.stamps)
		sc.epoch = 1
	}
	return sc.epoch
}

// useStamps reports whether the stamp strategy applies to domain size n,
// growing the stamp array if needed. Fresh stamp entries are zero, which can
// never equal the post-increment epoch of an ongoing call sequence until
// wrap-around resets both.
func (sc *CollisionScratch) useStamps(n int) bool {
	if n > maxStampDomain {
		return false
	}
	if len(sc.stamps) < n {
		sc.stamps = append(sc.stamps, make([]uint16, n-len(sc.stamps))...)
	}
	return true
}

// sorted copies samples into the reusable buffer and sorts it.
func (sc *CollisionScratch) sorted(samples []int) []int {
	sc.buf = append(sc.buf[:0], samples...)
	slices.Sort(sc.buf)
	return sc.buf
}

// HasCollision reports whether samples (drawn from a domain of size n)
// contains two equal elements, allocating nothing after warm-up.
func (sc *CollisionScratch) HasCollision(n int, samples []int) bool {
	if sc == nil {
		return HasCollision(samples)
	}
	if len(samples) < 2 {
		return false
	}
	if sc.useStamps(n) {
		epoch := sc.nextEpoch()
		stamps := sc.stamps
		for _, s := range samples {
			if stamps[s] == epoch {
				return true
			}
			stamps[s] = epoch
		}
		return false
	}
	cp := sc.sorted(samples)
	for i := 1; i < len(cp); i++ {
		if cp[i] == cp[i-1] {
			return true
		}
	}
	return false
}

// CountCollisions returns the number of colliding pairs Σ_i C(c_i, 2) in
// samples (drawn from a domain of size n), allocating nothing after
// warm-up.
func (sc *CollisionScratch) CountCollisions(n int, samples []int) int {
	if sc == nil {
		return CountCollisions(samples)
	}
	if len(samples) < 2 {
		return 0
	}
	if sc.useStamps(n) {
		// Σ C(c_i,2) = Σ_j (#earlier occurrences of samples[j]): count, for
		// each sample, how many times its value was already seen. Stamps
		// locate the first occurrence; a parallel counter array (reusing the
		// sort buffer) tracks multiplicities without clearing.
		if cap(sc.buf) < n {
			sc.buf = make([]int, n)
		}
		counts := sc.buf[:n]
		epoch := sc.nextEpoch()
		stamps := sc.stamps
		total := 0
		for _, s := range samples {
			if stamps[s] == epoch {
				total += counts[s]
				counts[s]++
				continue
			}
			stamps[s] = epoch
			counts[s] = 1
		}
		return total
	}
	cp := sc.sorted(samples)
	return countSortedCollisions(cp)
}

// CountDistinct returns the number of distinct values in samples (drawn
// from a domain of size n), allocating nothing after warm-up.
func (sc *CollisionScratch) CountDistinct(n int, samples []int) int {
	if len(samples) < 2 {
		return len(samples)
	}
	if sc == nil {
		samples = sortedCopy(samples)
	} else if sc.useStamps(n) {
		epoch := sc.nextEpoch()
		stamps := sc.stamps
		distinct := 0
		for _, s := range samples {
			if stamps[s] != epoch {
				stamps[s] = epoch
				distinct++
			}
		}
		return distinct
	} else {
		samples = sc.sorted(samples)
	}
	distinct := 1
	for i := 1; i < len(samples); i++ {
		if samples[i] != samples[i-1] {
			distinct++
		}
	}
	return distinct
}

// HasRepeat reports whether values holds two equal elements: the collision
// check on raw sample values that carry no domain size, such as the CONGEST
// tester's packages and the LOCAL tester's blocks. It sorts a copy in *buf,
// growing it as needed and leaving it for the next call, so a caller that
// keeps buf allocates nothing in steady state; a nil buf sorts a fresh copy.
func HasRepeat(values []uint64, buf *[]uint64) bool {
	switch len(values) {
	case 0, 1:
		return false
	case 2:
		return values[0] == values[1]
	}
	var cp []uint64
	if buf != nil {
		cp = (*buf)[:0]
	}
	cp = append(cp, values...)
	slices.Sort(cp)
	if buf != nil {
		*buf = cp
	}
	for i := 1; i < len(cp); i++ {
		if cp[i] == cp[i-1] {
			return true
		}
	}
	return false
}

// countSortedCollisions returns Σ C(run, 2) over equal-element runs of a
// sorted slice.
func countSortedCollisions(cp []int) int {
	total := 0
	run := 1
	for i := 1; i < len(cp); i++ {
		if cp[i] == cp[i-1] {
			run++
			continue
		}
		total += run * (run - 1) / 2
		run = 1
	}
	return total + run*(run-1)/2
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []int) []int {
	cp := make([]int, len(xs))
	copy(cp, xs)
	sort.Ints(cp)
	return cp
}
