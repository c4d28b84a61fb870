package tester

import (
	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
)

// Voter is a tester's draw-and-decide vote: the one path by which a
// network node turns its sample stream into a verdict. NewVoter resolves
// the tester's shape once, so a vote pays no type assertion.
//
// A BlockCollision rejects iff each of its m consecutive blocks holds a
// repeat, so its vote draws block i only after blocks 0…i−1 all collided
// and stops at the first block without one. Under the uniform input a
// block collides with probability δ′ ≪ 1, so nearly every node accepts
// after one block. One whose blocks hold fewer than two samples accepts
// without drawing. Every other tester draws its full sample set and runs
// Test.
//
// The blocks are consecutive prefixes of the stream, and dist.SampleInto
// draws exactly as that many scalar Sample calls would, so a vote always
// equals !Test on the full draw from the same generator state
// (FuzzVoteMatchesFullDraw). Only the generator's state after the vote
// differs: it is unspecified, and callers that vote on indexed streams
// (zeroround.VoteStream) reseed before every vote.
type Voter struct {
	t Tester
	// n, block and m are a BlockCollision's shape: m blocks of block
	// samples from a domain of size n. m is 0 for other testers.
	n, block, m int
}

// NewVoter resolves t's vote.
func NewVoter(t Tester) Voter {
	if b, ok := t.(*BlockCollision); ok {
		return Voter{t: t, n: b.n, block: b.s / b.m, m: b.m}
	}
	return Voter{t: t}
}

// Vote draws from d with r into buf, which must hold the tester's
// SampleSize, and reports whether the tester rejects. sc may be nil (the
// collision checks then allocate). buf's contents and r's state after the
// vote are unspecified.
func (v *Voter) Vote(d dist.Distribution, r *rng.RNG, buf []int, sc *dist.CollisionScratch) (reject bool) {
	if v.m == 0 {
		samples := buf[:v.t.SampleSize()]
		dist.SampleInto(d, samples, r)
		return !v.t.Test(samples, sc)
	}
	if v.block < 2 {
		return false // a block this small cannot collide
	}
	block := buf[:v.block]
	for i := 0; i < v.m; i++ {
		dist.SampleInto(d, block, r)
		if !sc.HasCollision(v.n, block) {
			return false // some block saw no collision ⇒ accept
		}
	}
	return true
}
