package zeroround

import (
	"sync/atomic"
	"testing"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
)

// countingDist counts the samples votes draw from the distribution it
// wraps. A vote draws whole blocks through dist.SampleInto, which finds
// this SampleInto; it delegates to the wrapped value's, so every vote
// takes its usual path. The counter is atomic because EstimateErrorAt
// runs trials on several workers.
type countingDist struct {
	dist.Distribution
	n *atomic.Int64
}

func (c countingDist) SampleInto(dst []int, r *rng.RNG) {
	c.n.Add(int64(len(dst)))
	dist.SampleInto(c.Distribution, dst, r)
}

// TestVoteSampleCounts pins how many samples the votes of E2's k = 1000 AND
// network (n = 2²⁰) and E3's k = 2000 threshold network (n = 2¹⁶) draw in
// EstimateErrorAt over trials 0–249 at base 7, on uniform and on two-bump
// input (trials 0–24 under the race detector). A count is a pure function
// of the code and the seed, so it moves only when a vote or the verdict's
// early stop draws differently: an AND node that drew every block instead
// of stopping at its first collision-free one would multiply the AND
// counts.
func TestVoteSampleCounts(t *testing.T) {
	const base = 7
	andCfg, err := SolveAND(1<<20, 1000, 1.0, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	and, err := BuildAND(andCfg)
	if err != nil {
		t.Fatal(err)
	}
	thrCfg, err := SolveThreshold(1<<16, 2000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	thr, err := BuildThreshold(thrCfg)
	if err != nil {
		t.Fatal(err)
	}
	trials := 250
	if raceEnabled {
		trials = 25
	}
	cases := []struct {
		name       string
		nw         *Network
		d          dist.Distribution
		wantAccept bool
		// samples and raceSamples are the counts over trials 0–249 and
		// trials 0–24.
		samples, raceSamples int64
	}{
		{"E2 AND uniform", and, dist.NewUniform(1 << 20), true, 42652712, 3705116},
		{"E2 AND two-bump", and, dist.NewTwoBump(1<<20, 1.0, 3), false, 28826816, 3267366},
		{"E3 threshold uniform", thr, dist.NewUniform(1 << 16), true, 25291818, 2528019},
		{"E3 threshold two-bump", thr, dist.NewTwoBump(1<<16, 1.0, 3), false, 16887222, 1673667},
	}
	for _, c := range cases {
		var n atomic.Int64
		c.nw.EstimateErrorAt(countingDist{c.d, &n}, c.wantAccept, trials, base)
		want := c.samples
		if raceEnabled {
			want = c.raceSamples
		}
		if got := n.Load(); got != want {
			t.Errorf("%s: %d samples over trials 0–%d, want %d", c.name, got, trials-1, want)
		}
	}
}
