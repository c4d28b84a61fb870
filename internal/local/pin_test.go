package local

import (
	"reflect"
	"testing"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/simnet"
	"github.com/unifdist/unifdist/internal/simnet/simnettest"
)

// localPinCase is one pinned LOCAL topology with its gathering radius.
type localPinCase struct {
	g      *graph.Graph
	radius int
}

func localPinCases() []localPinCase {
	return []localPinCase{
		{graph.NewLine(200), 8},
		{graph.NewGrid(10, 20), 4},
		{graph.NewRandomConnected(200, 4.0/200, 200), 3},
	}
}

// localPinTokens draws k tokens over a 256-value domain, so votes collide.
func localPinTokens(k int) []uint64 {
	r := rng.New(uint64(k) * 17)
	tokens := make([]uint64, k)
	for i := range tokens {
		tokens[i] = r.Uint64() % 256
	}
	return tokens
}

// lubyPin is one recorded LubyMIS run on G^r.
type lubyPin struct {
	rounds, iterations, misSize int
}

// The pins are literals recorded from the map-based Luby node that
// preceded the sorted-slice one, keyed by topology name.
var (
	lubyPins = map[string]lubyPin{
		"line(200)":          {9, 3, 17},
		"grid(10x20)":        {6, 2, 11},
		"random(200,p=0.02)": {12, 4, 10},
	}
	uniformityPins = map[string]Result{
		"line(200)":          {Accept: false, GRounds: 66, MISNodes: 18, MinSamples: 5, MaxSamples: 15, Rejecting: 1},
		"grid(10x20)":        {Accept: false, GRounds: 46, MISNodes: 13, MinSamples: 9, MaxSamples: 23, Rejecting: 3},
		"random(200,p=0.02)": {Accept: false, GRounds: 44, MISNodes: 8, MinSamples: 7, MaxSamples: 57, Rejecting: 4},
	}
)

func TestLocalStatsPinned(t *testing.T) {
	for _, c := range localPinCases() {
		name := c.g.Name()
		mis, err := LubyMIS(c.g.Power(c.radius), 41)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		size := 0
		for _, in := range mis.InMIS {
			if in {
				size++
			}
		}
		if got := (lubyPin{mis.Rounds, mis.Iterations, size}); got != lubyPins[name] {
			t.Errorf("%s: LubyMIS got\n\t%q: {%d, %d, %d},\nwant %+v", name, name, got.rounds, got.iterations, got.misSize, lubyPins[name])
		}
		p := Params{N: 256, K: c.g.N(), Eps: 1, P: 1.0 / 3, R: c.radius}
		p.AND.M = 1
		res, err := RunUniformity(c.g, localPinTokens(c.g.N()), p, 43)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res != uniformityPins[name] {
			t.Errorf("%s: RunUniformity got\n\t%q: %#v,\nwant %+v", name, name, res, uniformityPins[name])
		}
	}
}

// TestLocalEnginesAgree runs Luby's MIS and the sample gather under the
// flat engine and the goroutine-per-node reference and requires the same
// MIS, stats and collected samples. RunChannel hands receivers the
// sender's payload slices, so under -race this also checks that the Luby
// node's reused payloads are never rewritten while a neighbor reads them.
func TestLocalEnginesAgree(t *testing.T) {
	engines := []struct {
		name string
		run  func(*graph.Graph, []simnet.Node, simnet.Config) (simnet.Stats, error)
	}{
		{"flat", simnet.Run},
		{"channel", simnettest.RunChannel},
	}
	for _, c := range localPinCases() {
		power := c.g.Power(c.radius)
		tokens := localPinTokens(c.g.N())
		per := make([][]uint64, len(tokens))
		for v, tok := range tokens {
			per[v] = []uint64{tok}
		}
		type outcome struct {
			mis         MISResult
			misStats    simnet.Stats
			collected   map[int][]uint64
			gatherStats simnet.Stats
		}
		var outs []outcome
		for _, e := range engines {
			nodes, impls := newLubyNodes(power.N())
			misStats, err := e.run(power, nodes, simnet.Config{Seed: 41})
			if err != nil {
				t.Fatalf("%s %s luby: %v", c.g.Name(), e.name, err)
			}
			mis, err := collectMIS(impls, misStats)
			if err != nil {
				t.Fatalf("%s %s luby: %v", c.g.Name(), e.name, err)
			}
			gnodes, gimpls := newGatherNodes(per, mis.InMIS, c.radius)
			gatherStats, err := e.run(c.g, gnodes, simnet.Config{Seed: 43})
			if err != nil {
				t.Fatalf("%s %s gather: %v", c.g.Name(), e.name, err)
			}
			collected, err := collectGather(gimpls)
			if err != nil {
				t.Fatalf("%s %s gather: %v", c.g.Name(), e.name, err)
			}
			outs = append(outs, outcome{mis, misStats, collected, gatherStats})
		}
		if !reflect.DeepEqual(outs[0], outs[1]) {
			t.Errorf("%s: engines disagree:\nflat:    %+v\nchannel: %+v", c.g.Name(), outs[0], outs[1])
		}
	}
}
