package local

import (
	"testing"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// pinParams is the pinned LOCAL runs' configuration on case c.
func pinParams(c localPinCase) Params {
	p := Params{N: 256, K: c.g.N(), Eps: 1, P: 1.0 / 3, R: c.radius}
	p.AND.M = 1
	return p
}

// perNode gives each node its one token.
func perNode(tokens []uint64) [][]uint64 {
	per := make([][]uint64, len(tokens))
	for v, tok := range tokens {
		per[v] = []uint64{tok}
	}
	return per
}

// TestGatherIsTokenOblivious pins what the LOCAL schedule rests on: on
// every pin case, at the pinned MIS seed, runs on values drawn at two
// seeds cost the tag run's G-rounds and deliver each MIS node the values
// at the tag run's positions, in the same order.
func TestGatherIsTokenOblivious(t *testing.T) {
	for _, c := range localPinCases() {
		name := c.g.Name()
		sched, err := RunSchedule(c.g, pinParams(c), 43)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := rng.New(987654321)
		second := make([]uint64, c.g.N())
		for i := range second {
			second[i] = r.Uint64() % 256
		}
		for _, values := range [][]uint64{localPinTokens(c.g.N()), second} {
			blocks, gRounds, err := route(c.g, perNode(values), c.radius, 43)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if gRounds != sched.GRounds || len(blocks) != len(sched.Blocks) {
				t.Fatalf("%s: values cost %d G-rounds over %d MIS nodes, schedule %d over %d",
					name, gRounds, len(blocks), sched.GRounds, len(sched.Blocks))
			}
			for i, b := range blocks {
				if len(b) != len(sched.Blocks[i]) {
					t.Fatalf("%s: MIS node %d collected %d samples, schedule %d", name, i, len(b), len(sched.Blocks[i]))
				}
				for j, pos := range sched.Blocks[i] {
					if b[j] != values[pos] {
						t.Fatalf("%s: MIS node %d sample %d is %d, want value %d of position %d", name, i, j, b[j], values[pos], pos)
					}
				}
			}
		}
	}
}

// TestScheduleNetworkMatchesSimulation is the LOCAL differential pin: on
// the pin topologies, trials 0–31 of the virtual network are laid out by
// the schedule's blocks and fed to the full protocol at the schedule's MIS
// seed, whose verdict and rejecting count must equal RunAt's.
func TestScheduleNetworkMatchesSimulation(t *testing.T) {
	const n = 4096 // large blocks collide often, small ones seldom
	d := dist.NewUniform(n)
	gen := rng.New(0)
	verdicts := map[bool]int{}
	for _, c := range localPinCases() {
		name := c.g.Name()
		p := pinParams(c)
		p.N = n
		sched, err := RunSchedule(c.g, p, 43)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nw, err := sched.Network(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		base := uint64(c.g.N())
		for trial := 0; trial < 32; trial++ {
			tokens := make([]uint64, c.g.N())
			for i, b := range sched.Blocks {
				zeroround.VoteStream(gen, base, uint64(trial), i, nw.K())
				block := make([]int, len(b))
				dist.SampleInto(d, block, gen)
				for j, pos := range b {
					tokens[pos] = uint64(block[j])
				}
			}
			res, err := RunUniformity(c.g, tokens, p, 43)
			if err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			accept, rejects := nw.RunAt(d, base, uint64(trial), nil, nil)
			verdicts[accept]++
			if res.Accept != accept || res.Rejecting != rejects {
				t.Errorf("%s trial %d: simulation (accept=%v, rejecting=%d), RunAt (accept=%v, rejecting=%d)",
					name, trial, res.Accept, res.Rejecting, accept, rejects)
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("trials decided only one way: %v", verdicts)
	}
}
