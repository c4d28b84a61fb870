package local

import (
	"testing"
	"testing/quick"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
)

func TestLubyMISTopologies(t *testing.T) {
	topologies := []*graph.Graph{
		graph.NewLine(20),
		graph.NewRing(15),
		graph.NewStar(12),
		graph.NewComplete(8),
		graph.NewGrid(5, 6),
		graph.NewRandomConnected(50, 0.1, 4),
		graph.New(1, "single"),
	}
	for _, g := range topologies {
		t.Run(g.Name(), func(t *testing.T) {
			res, err := LubyMIS(g, 7)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyMIS(g, res.InMIS); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLubyMISProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%50) + 1
		g := graph.NewRandomConnected(k, 0.15, seed)
		res, err := LubyMIS(g, seed^0x55)
		if err != nil {
			return false
		}
		return VerifyMIS(g, res.InMIS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLubyMISCompleteGraphHasOneNode(t *testing.T) {
	g := graph.NewComplete(20)
	res, err := LubyMIS(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, in := range res.InMIS {
		if in {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("MIS of K_20 has %d vertices, want 1", count)
	}
}

func TestLubyMISDeterministic(t *testing.T) {
	g := graph.NewGrid(6, 6)
	a, err := LubyMIS(g, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LubyMIS(g, 42)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] {
			t.Fatalf("MIS differs at vertex %d across identical seeds", v)
		}
	}
}

func TestLubyIterationsLogarithmic(t *testing.T) {
	// Luby finishes in O(log k) iterations w.h.p.; allow a generous
	// constant.
	g := graph.NewRandomConnected(300, 0.05, 9)
	res, err := LubyMIS(g, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 40 {
		t.Fatalf("%d iterations on 300 vertices, want O(log k)", res.Iterations)
	}
}

func TestVerifyMISDetectsViolations(t *testing.T) {
	g := graph.NewLine(4)
	// Adjacent MIS vertices.
	if err := VerifyMIS(g, []bool{true, true, false, true}); err == nil {
		t.Error("adjacent MIS vertices accepted")
	}
	// Uncovered vertex.
	if err := VerifyMIS(g, []bool{true, false, false, false}); err == nil {
		t.Error("uncovered vertex accepted")
	}
	// Length mismatch.
	if err := VerifyMIS(g, []bool{true}); err == nil {
		t.Error("length mismatch accepted")
	}
	// Valid MIS.
	if err := VerifyMIS(g, []bool{true, false, true, false}); err != nil {
		t.Errorf("valid MIS rejected: %v", err)
	}
}

func TestGatherDeliversAllSamples(t *testing.T) {
	// Every node's token must arrive at exactly one MIS node.
	for _, tc := range []struct {
		g *graph.Graph
		r int
	}{
		{g: graph.NewLine(30), r: 4},
		{g: graph.NewGrid(6, 8), r: 3},
		{g: graph.NewRandomConnected(60, 0.08, 2), r: 2},
		{g: graph.NewStar(25), r: 1},
	} {
		power := tc.g.Power(tc.r)
		mis, err := LubyMIS(power, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyMIS(power, mis.InMIS); err != nil {
			t.Fatal(err)
		}
		tokens := make([][]uint64, tc.g.N())
		for i := range tokens {
			tokens[i] = []uint64{uint64(7000 + i)}
		}
		collected, rounds, err := gather(tc.g, tokens, mis.InMIS, tc.r)
		if err != nil {
			t.Fatalf("%s r=%d: %v", tc.g.Name(), tc.r, err)
		}
		if rounds > 2*tc.r+2 {
			t.Errorf("%s: gather took %d rounds, want ≤ 2r+2 = %d", tc.g.Name(), rounds, 2*tc.r+2)
		}
		seen := make(map[uint64]int)
		for _, samples := range collected {
			for _, s := range samples {
				seen[s]++
			}
		}
		for _, toks := range tokens {
			if seen[toks[0]] != 1 {
				t.Fatalf("%s: token %d delivered %d times, want once", tc.g.Name(), toks[0], seen[toks[0]])
			}
		}
	}
}

func TestGatherMinSamplesBound(t *testing.T) {
	// Paper claim: every MIS node of G^r collects all samples in its
	// r/2-neighborhood, hence ≥ r/2 samples on a connected graph.
	g := graph.NewLine(100)
	r := 8
	power := g.Power(r)
	mis, err := LubyMIS(power, 21)
	if err != nil {
		t.Fatal(err)
	}
	tokens := make([][]uint64, g.N())
	for i := range tokens {
		tokens[i] = []uint64{uint64(i)}
	}
	collected, _, err := gather(g, tokens, mis.InMIS, r)
	if err != nil {
		t.Fatal(err)
	}
	for v, samples := range collected {
		if len(samples) < r/2 {
			t.Errorf("MIS node %d collected %d samples, want ≥ r/2 = %d", v, len(samples), r/2)
		}
	}
}

func TestSolveLocalBasics(t *testing.T) {
	p, err := SolveLocal(1<<16, 10000, 1, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	if p.R < 2 {
		t.Fatalf("radius %d", p.R)
	}
	if p.AND.M < 1 {
		t.Fatalf("AND config %+v", p.AND)
	}
	// The radius must cover the AND config's per-virtual-node demand when
	// feasible.
	if p.Feasible && p.AND.SamplesPerNode > p.R/2 {
		t.Fatalf("feasible but samples %d > r/2 = %d", p.AND.SamplesPerNode, p.R/2)
	}
}

func TestSolveLocalRadiusGrowsWithN(t *testing.T) {
	p1, err := SolveLocal(1<<12, 5000, 1, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := SolveLocal(1<<18, 5000, 1, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	if p2.R < p1.R {
		t.Fatalf("radius shrank with n: %d (n=2^12) vs %d (n=2^18)", p1.R, p2.R)
	}
}

func TestSolveLocalErrors(t *testing.T) {
	if _, err := SolveLocal(1000, 0, 1, 1.0/3); err == nil {
		t.Error("k=0 accepted")
	}
}

// drawRun draws one token per node of g from d, then the MIS seed, in the
// order the tests have always drawn a run's inputs from one generator.
func drawRun(g *graph.Graph, d dist.Distribution, r *rng.RNG) ([]uint64, uint64) {
	tokens := make([]uint64, g.N())
	for v := range tokens {
		tokens[v] = uint64(d.Sample(r))
	}
	return tokens, r.Uint64()
}

func TestRunUniformitySeparation(t *testing.T) {
	// LOCAL end-to-end: dramatic cases must be decided correctly.
	n := 1 << 30 // collisions essentially impossible under uniform
	g := graph.NewRandomConnected(400, 0.02, 6)
	p := Params{N: n, K: g.N(), Eps: 1, P: 1.0 / 3, R: 6}
	cfg, err := SolveLocal(n, g.N(), 1, 1.0/3)
	if err == nil {
		p.AND = cfg.AND
	}
	if p.AND.M == 0 {
		p.AND.M = 1
	}
	r := rng.New(41)
	tokens, seed := drawRun(g, dist.NewUniform(n), r)
	res, err := RunUniformity(g, tokens, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accept {
		t.Error("huge uniform domain rejected (collision against 2^30 domain)")
	}
	if res.MISNodes < 1 {
		t.Error("no MIS nodes")
	}

	// Point mass: every block of ≥2 samples collides, so every MIS node
	// with enough samples rejects.
	point := dist.NewPointMassMixture(1<<10, 0, 0.999)
	p.N = 1 << 10
	tokens, seed = drawRun(g, point, r)
	res, err = RunUniformity(g, tokens, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accept {
		t.Error("near-point-mass accepted")
	}
}

func TestRunUniformityGRoundsAccounting(t *testing.T) {
	g := graph.NewGrid(8, 8)
	p := Params{N: 1 << 20, K: g.N(), Eps: 1, P: 1.0 / 3, R: 4}
	p.AND.M = 1
	res, err := RunUniformity(g, make([]uint64, g.N()), p, 3)
	if err != nil {
		t.Fatal(err)
	}
	// G-rounds must include R× the MIS rounds plus the 2R+2 gather rounds:
	// strictly more than the gather alone, and bounded by a sane multiple.
	if res.GRounds <= 2*p.R {
		t.Fatalf("GRounds = %d implausibly small", res.GRounds)
	}
	if res.GRounds > 200*p.R {
		t.Fatalf("GRounds = %d implausibly large", res.GRounds)
	}
}

func TestRunUniformityValidation(t *testing.T) {
	g := graph.NewLine(4)
	if _, err := RunUniformity(g, []uint64{1}, Params{R: 2}, 1); err == nil {
		t.Error("token mismatch accepted")
	}
	if _, err := RunUniformity(g, []uint64{1, 2, 3, 4}, Params{R: 0}, 1); err == nil {
		t.Error("radius 0 accepted")
	}
}

func TestVirtualVote(t *testing.T) {
	tests := []struct {
		name    string
		m       int
		samples []uint64
		want    bool
	}{
		{name: "no samples accepts", m: 2, samples: nil, want: true},
		{name: "distinct accepts", m: 1, samples: []uint64{1, 2, 3, 4}, want: true},
		{name: "all collide rejects", m: 2, samples: []uint64{5, 5, 6, 6}, want: false},
		{name: "one clean block accepts", m: 2, samples: []uint64{5, 5, 1, 2}, want: true},
		{name: "single block collision rejects", m: 1, samples: []uint64{9, 9}, want: false},
		{name: "tiny blocks accept", m: 4, samples: []uint64{3, 3, 3}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := virtualVote(100, tt.m, tt.samples); got != tt.want {
				t.Fatalf("virtualVote(m=%d, %v) = %v, want %v", tt.m, tt.samples, got, tt.want)
			}
		})
	}
}

func TestBeaconCodecRoundTrip(t *testing.T) {
	routes := map[int]beaconEntry{
		3:  {dist: 2, port: 1},
		17: {dist: 0, port: -1},
	}
	payload := encodeBeacons([]int{3, 17}, routes)
	entries := decodeBeacons(payload)
	if len(entries) != 2 {
		t.Fatalf("decoded %d entries", len(entries))
	}
	if entries[0].mis != 3 || entries[0].dist != 3 {
		t.Errorf("entry 0 = %+v, want mis=3 dist=3", entries[0])
	}
	if entries[1].mis != 17 || entries[1].dist != 1 {
		t.Errorf("entry 1 = %+v, want mis=17 dist=1", entries[1])
	}
}

func TestSampleCodecRoundTrip(t *testing.T) {
	in := []pendingSample{{mis: 5, value: 1 << 40}, {mis: 0, value: 0}}
	out := decodeSamples(encodeSamples(in))
	if len(out) != len(in) {
		t.Fatalf("decoded %d samples", len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("sample %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func BenchmarkLubyMIS(b *testing.B) {
	g := graph.NewRandomConnected(200, 0.05, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LubyMIS(g, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalUniformity(b *testing.B) {
	g := graph.NewRandomConnected(300, 0.03, 2)
	p := Params{N: 1 << 20, K: g.N(), Eps: 1, P: 1.0 / 3, R: 4}
	p.AND.M = 1
	r := rng.New(1)
	d := dist.NewUniform(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tokens, seed := drawRun(g, d, r)
		if _, err := RunUniformity(g, tokens, p, seed); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunUniformityMulti(t *testing.T) {
	g := graph.NewGrid(6, 6)
	p := Params{N: 1 << 30, K: g.N(), Eps: 1, P: 1.0 / 3, R: 3}
	p.AND.M = 1
	per := make([][]uint64, g.N())
	total := 0
	for v := range per {
		per[v] = []uint64{uint64(10 * v), uint64(10*v + 1), uint64(10*v + 2)}
		total += 3
	}
	res, err := RunUniformityMulti(g, per, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accept {
		t.Error("distinct samples over a huge domain rejected")
	}
	// All samples must have been delivered: Σ per-MIS collected = total.
	// MinSamples reflects multi-sample contributions.
	if res.MISNodes < 1 {
		t.Fatal("no MIS nodes")
	}
	if res.MinSamples < 3 {
		t.Errorf("MIS node collected %d samples; each node contributed 3", res.MinSamples)
	}
	if _, err := RunUniformityMulti(g, per[:3], p, 5); err == nil {
		t.Error("mismatched token sets accepted")
	}
}

func TestRunUniformityMultiEmptyNodes(t *testing.T) {
	g := graph.NewLine(8)
	p := Params{N: 1 << 20, K: g.N(), Eps: 1, P: 1.0 / 3, R: 2}
	p.AND.M = 1
	per := make([][]uint64, g.N())
	per[2] = []uint64{42}
	res, err := RunUniformityMulti(g, per, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accept {
		t.Error("single sample rejected")
	}
}
