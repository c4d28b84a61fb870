package tester

import (
	"testing"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
)

// scalarOnly hides a distribution's SampleInto, so dist.SampleInto takes
// the scalar Sample loop; draws counts the samples it has handed out.
type scalarOnly struct {
	dist.Distribution
	draws *int
}

func (s scalarOnly) Sample(r *rng.RNG) int {
	*s.draws++
	return s.Distribution.Sample(r)
}

// testOnly hides a tester's concrete type, so NewVoter takes the
// full-draw path.
type testOnly struct{ Tester }

// voteTester builds the fuzzed tester: choice picks NewSingleCollision,
// NewAmplified (m = 1…4), NewBlockCollision (any s, including ⌊s/m⌋ < 2 and
// s mod m ≠ 0), CollisionCounting, or a tester NewVoter does not know.
func voteTester(t *testing.T, choice uint8, n int, delta float64, s, m int) Tester {
	t.Helper()
	var (
		tt  Tester
		err error
	)
	switch choice % 5 {
	case 0:
		tt, err = NewSingleCollision(n, delta, 1)
	case 1:
		tt, err = NewAmplified(n, delta, 1, m)
	case 2:
		tt = NewBlockCollision(n, s, m)
	case 3:
		tt, err = NewCollisionCounting(n, 1, s+2)
	default:
		var sc *BlockCollision
		sc, err = NewSingleCollision(n, delta, 1)
		tt = testOnly{sc}
	}
	if err != nil {
		t.Skip(err)
	}
	return tt
}

// voteInput builds the fuzzed input on domain n (even): Uniform, TwoBump,
// a Zipf histogram, a point-mass mixture, or TwoBump behind the scalar
// Sample loop.
func voteInput(choice uint8, n int, seed uint64, draws *int) dist.Distribution {
	switch choice % 5 {
	case 0:
		return dist.NewUniform(n)
	case 1:
		return dist.NewTwoBump(n, 1, seed)
	case 2:
		return dist.NewZipf(n, 1.1)
	case 3:
		return dist.NewPointMassMixture(n, int(seed%uint64(n)), 0.3)
	default:
		return scalarOnly{dist.NewTwoBump(n, 1, seed), draws}
	}
}

// FuzzVoteMatchesFullDraw: a vote, which stops drawing at its deciding
// block, equals !Test on the tester's full sample set drawn from the same
// generator state, for every tester shape and input. Small domains make
// blocks collide often, so votes that draw every block are common too.
func FuzzVoteMatchesFullDraw(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(64), uint8(50), uint8(7), uint8(1))
	f.Add(uint64(2), uint8(1), uint8(1), uint16(32), uint8(200), uint8(9), uint8(3))
	f.Add(uint64(3), uint8(2), uint8(2), uint16(16), uint8(0), uint8(7), uint8(2))
	f.Add(uint64(4), uint8(2), uint8(3), uint16(8), uint8(0), uint8(3), uint8(3))
	f.Add(uint64(5), uint8(2), uint8(4), uint16(100), uint8(0), uint8(30), uint8(3))
	f.Add(uint64(6), uint8(3), uint8(0), uint16(256), uint8(0), uint8(40), uint8(0))
	f.Add(uint64(7), uint8(4), uint8(4), uint16(64), uint8(90), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, testerRaw, inputRaw uint8, nRaw uint16, deltaRaw, sRaw, mRaw uint8) {
		n := 2 * (int(nRaw)%2048 + 1)
		delta := (float64(deltaRaw) + 1) / 258
		m := int(mRaw)%4 + 1
		tt := voteTester(t, testerRaw, n, delta, int(sRaw)%64, m)
		draws := 0
		d := voteInput(inputRaw, n, seed, &draws)
		v := NewVoter(tt)
		buf := make([]int, tt.SampleSize())
		sc := dist.NewCollisionScratch()
		for round := uint64(0); round < 8; round++ {
			var col *dist.CollisionScratch
			if round%2 == 0 {
				col = sc
			}
			got := v.Vote(d, rng.New(seed+round), buf, col)
			want := !tt.Test(dist.SampleN(d, tt.SampleSize(), rng.New(seed+round)), nil)
			if got != want {
				t.Fatalf("%s on %s, seed %d: vote rejects = %v, full draw rejects = %v",
					tt.Name(), d.Name(), seed+round, got, want)
			}
		}
	})
}

// TestVoteStopsAtDecidingBlock counts the samples a vote draws: a
// block-collision vote draws block after block until one holds no repeat,
// a BlockCollision with blocks under two samples draws nothing, and every
// other tester draws its full sample set.
func TestVoteStopsAtDecidingBlock(t *testing.T) {
	const n = 64
	am, err := NewAmplified(n, 0.3, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewCollisionCounting(n, 1, 24)
	if err != nil {
		t.Fatal(err)
	}
	block := am.Params().S
	draws := 0
	d := scalarOnly{dist.NewUniform(n), &draws}
	for _, tc := range []struct {
		tester Tester
		drawn  func(samples []int) int // samples the vote should draw
		early  bool                    // whether some of 200 votes stop early
	}{
		{am, func(samples []int) int {
			for i := 0; i < 4; i++ {
				if !dist.HasCollision(samples[i*block : (i+1)*block]) {
					return (i + 1) * block
				}
			}
			return 4 * block
		}, true},
		{NewBlockCollision(n, 7, 4), func([]int) int { return 0 }, true},
		{cc, func(samples []int) int { return len(samples) }, false},
	} {
		v := NewVoter(tc.tester)
		buf := make([]int, tc.tester.SampleSize())
		sc := dist.NewCollisionScratch()
		early := false
		for seed := uint64(0); seed < 200; seed++ {
			draws = 0
			v.Vote(d, rng.New(seed), buf, sc)
			got := draws
			want := tc.drawn(dist.SampleN(d, tc.tester.SampleSize(), rng.New(seed)))
			if got != want {
				t.Fatalf("%s seed %d: vote drew %d samples, want %d", tc.tester.Name(), seed, got, want)
			}
			early = early || got < tc.tester.SampleSize()
		}
		if early != tc.early {
			t.Errorf("%s: some vote stopped early = %v, want %v", tc.tester.Name(), early, tc.early)
		}
	}
}
