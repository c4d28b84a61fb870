package congest

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
)

func TestMessageRoundTrip(t *testing.T) {
	msgs := []message{
		{typ: msgAnnounce, a: 42, b: 7},
		{typ: msgAccept, a: 42},
		{typ: msgReject, a: 41},
		{typ: msgComplete, a: 42, b: 19 | completeBiggerBit},
		{typ: msgStart, a: 7, b: 3},
		{typ: msgCount, a: 5},
		{typ: msgToken, a: 1<<50 + 17},
		{typ: msgTokDone},
		{typ: msgReport, a: 5, b: 12},
		{typ: msgDecision, a: 1},
	}
	for _, m := range msgs {
		payload := appendEncode(nil, m)
		if len(payload) > congestBandwidth {
			t.Errorf("type %d: %d bytes exceeds CONGEST budget", m.typ, len(payload))
		}
		got, err := decode(payload)
		if err != nil {
			t.Fatalf("type %d: %v", m.typ, err)
		}
		if got != m {
			t.Errorf("round trip: got %+v, want %+v", got, m)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{99},                      // unknown type
		{byte(msgToken), 1, 2},    // short token
		{byte(msgTokDone), 0},     // oversized control
		{byte(msgComplete), 1, 2}, // short complete
	}
	for _, payload := range cases {
		if _, err := decode(payload); err == nil {
			t.Errorf("decode(%v) accepted", payload)
		}
	}
}

// drawTokens draws one token per node of g from d, then skips the word a
// run once took from r as its simulator seed, so tests that draw several
// inputs from one generator keep their inputs.
func drawTokens(g *graph.Graph, d dist.Distribution, r *rng.RNG) []uint64 {
	tokens := make([]uint64, g.N())
	for v := range tokens {
		tokens[v] = uint64(d.Sample(r))
	}
	r.Uint64()
	return tokens
}

// checkPackagingInvariants verifies the three requirements of Definition 2
// plus token conservation.
func checkPackagingInvariants(t *testing.T, res PackagingResult, tokens []uint64, tau int) {
	t.Helper()
	for i, pkg := range res.Packages {
		if len(pkg) != tau {
			t.Fatalf("package %d has size %d, want exactly %d", i, len(pkg), tau)
		}
	}
	if res.Discarded > tau-1 {
		t.Fatalf("root discarded %d tokens, want ≤ τ−1 = %d", res.Discarded, tau-1)
	}
	// Conservation: packaged + discarded = all tokens, as multisets.
	var packaged []uint64
	for _, pkg := range res.Packages {
		packaged = append(packaged, pkg...)
	}
	if got, want := len(packaged)+res.Discarded, len(tokens); got != want {
		t.Fatalf("packaged %d + discarded %d != %d tokens", len(packaged), res.Discarded, want)
	}
	// Each token in at most one package: multiset inclusion. Count values.
	counts := make(map[uint64]int, len(tokens))
	for _, tok := range tokens {
		counts[tok]++
	}
	for _, v := range packaged {
		counts[v]--
		if counts[v] < 0 {
			t.Fatalf("token value %d packaged more times than it exists", v)
		}
	}
}

func TestTokenPackagingTopologies(t *testing.T) {
	topologies := []*graph.Graph{
		graph.NewLine(17),
		graph.NewRing(12),
		graph.NewStar(15),
		graph.NewGrid(4, 6),
		graph.NewBalancedTree(31, 2),
		graph.NewComplete(9),
		graph.NewRandomConnected(40, 0.08, 11),
	}
	for _, g := range topologies {
		t.Run(g.Name(), func(t *testing.T) {
			for _, tau := range []int{1, 2, 3, 5} {
				tokens := make([]uint64, g.N())
				for i := range tokens {
					tokens[i] = uint64(1000 + i)
				}
				res, err := RunTokenPackaging(g, tokens, tau, Options{})
				if err != nil {
					t.Fatalf("tau=%d: %v", tau, err)
				}
				checkPackagingInvariants(t, res, tokens, tau)
				if res.Root != g.N()-1 {
					t.Errorf("tau=%d: root %d, want max ID %d", tau, res.Root, g.N()-1)
				}
			}
		})
	}
}

func TestTokenPackagingRoundBound(t *testing.T) {
	// Theorem 5.1: O(D + τ) rounds. Our staggered implementation costs a
	// constant factor; assert rounds ≤ c·(D+τ) + c′ with c = 6, c′ = 20.
	cases := []struct {
		g   *graph.Graph
		tau int
	}{
		{g: graph.NewLine(60), tau: 4},
		{g: graph.NewLine(30), tau: 25},
		{g: graph.NewRing(50), tau: 10},
		{g: graph.NewStar(80), tau: 12},
		{g: graph.NewGrid(8, 8), tau: 7},
		{g: graph.NewRandomConnected(100, 0.05, 3), tau: 9},
	}
	for _, tc := range cases {
		tokens := make([]uint64, tc.g.N())
		for i := range tokens {
			tokens[i] = uint64(i)
		}
		res, err := RunTokenPackaging(tc.g, tokens, tc.tau, Options{})
		if err != nil {
			t.Fatalf("%s tau=%d: %v", tc.g.Name(), tc.tau, err)
		}
		d := tc.g.Diameter()
		bound := 6*(d+tc.tau) + 20
		if res.Stats.Rounds > bound {
			t.Errorf("%s tau=%d: %d rounds > %d = 6(D+τ)+20 (D=%d)",
				tc.g.Name(), tc.tau, res.Stats.Rounds, bound, d)
		}
	}
}

func TestTokenPackagingProperty(t *testing.T) {
	// Invariants hold on random connected graphs with random τ and token
	// values (duplicates included).
	f := func(seed uint64, kRaw, tauRaw uint8) bool {
		k := int(kRaw%40) + 2
		tau := int(tauRaw%6) + 1
		g := graph.NewRandomConnected(k, 0.1, seed)
		r := rng.New(seed ^ 0xabc)
		tokens := make([]uint64, k)
		for i := range tokens {
			tokens[i] = uint64(r.Intn(8)) // deliberately collision-heavy
		}
		res, err := RunTokenPackaging(g, tokens, tau, Options{})
		if err != nil {
			return false
		}
		if res.Discarded > tau-1 {
			return false
		}
		total := res.Discarded
		for _, pkg := range res.Packages {
			if len(pkg) != tau {
				return false
			}
			total += len(pkg)
		}
		return total == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveParamsFeasibleRegime(t *testing.T) {
	// Rigorous feasibility needs tens of thousands of nodes (DESIGN.md
	// §3.1); the calibrated model is feasible at k=8000.
	p, err := SolveParamsCalibrated(1<<12, 8000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible {
		t.Fatalf("expected feasible calibrated params, got %+v", p)
	}
	if !p.Calibrated {
		t.Fatal("calibrated flag not set")
	}
	rig, err := SolveParams(1<<12, 40000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rig.Feasible {
		t.Fatalf("expected feasible rigorous params at k=40000, got %+v", rig)
	}
	if rig.Calibrated {
		t.Fatal("rigorous params marked calibrated")
	}
	if p.Tau < 2 {
		t.Fatalf("tau = %d", p.Tau)
	}
	if p.VirtualNodes < 1 {
		t.Fatalf("virtual nodes = %d", p.VirtualNodes)
	}
	if float64(p.T) <= p.EtaUniform || float64(p.T) >= p.EtaFar {
		t.Fatalf("T=%d outside (ηU=%v, ηFar=%v)", p.T, p.EtaUniform, p.EtaFar)
	}
}

func TestSolveParamsTauScaling(t *testing.T) {
	// τ = Θ(n/(kε⁴)): quadrupling n should roughly quadruple τ.
	p1, err := SolveParamsCalibrated(1<<12, 16000, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := SolveParamsCalibrated(1<<14, 16000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Feasible || !p2.Feasible {
		t.Skipf("infeasible regime: %+v / %+v", p1, p2)
	}
	ratio := float64(p2.Tau) / float64(p1.Tau)
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("4×n changed τ by %vx, want ~4x (τ₁=%d τ₂=%d)", ratio, p1.Tau, p2.Tau)
	}
}

func TestSolveParamsErrors(t *testing.T) {
	if _, err := SolveParams(1000, 1, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := SolveParams(1000, 100, 0); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestUniformityProtocolEndToEnd(t *testing.T) {
	// Theorem 1.4 end-to-end on a random graph: error ≤ 1/3 on both sides,
	// estimated on the virtual network of one simulated schedule.
	n, k, eps := 1<<12, 8000, 1.0
	p, err := SolveParamsCalibrated(n, k, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible {
		t.Skipf("infeasible regime: %+v", p)
	}
	g := graph.NewRandomConnected(k, 0.0008, 1)
	sched, err := RunSchedule(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := sched.Network(n)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(12)
	const trials = 1000
	errU := nw.EstimateErrorAt(dist.NewUniform(n), true, trials, r.Uint64())
	errFar := nw.EstimateErrorAt(dist.NewTwoBump(n, eps, 3), false, trials, r.Uint64())
	if errU > 1.0/3+0.2 {
		t.Errorf("uniform error %v too high", errU)
	}
	if errFar > 1.0/3+0.2 {
		t.Errorf("far error %v too high", errFar)
	}
}

func TestUniformityDecisionConsistency(t *testing.T) {
	// Every node must end with the root's decision; the root is the max ID;
	// virtual-node counts must match the packages.
	n, k := 1<<12, 600
	p, err := SolveParams(n, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.NewGrid(20, 30)
	r := rng.New(5)
	res, err := RunUniformity(g, drawTokens(g, dist.NewUniform(n), r), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Root != k-1 {
		t.Errorf("root %d, want %d", res.Root, k-1)
	}
	if res.Virtuals != len(res.Packages) {
		t.Errorf("root counted %d virtual nodes, %d packages exist", res.Virtuals, len(res.Packages))
	}
	rej := 0
	for _, pkg := range res.Packages {
		if hasCollision(pkg) {
			rej++
		}
	}
	if rej != res.Rejects {
		t.Errorf("root counted %d rejects, packages show %d", res.Rejects, rej)
	}
	if got, want := res.Accept, rej < p.T; got != want {
		t.Errorf("decision %v inconsistent with rejects %d vs T=%d", got, rej, p.T)
	}
}

func TestUniformityRoundBound(t *testing.T) {
	// Theorem 1.4: O(D + n/(kε⁴)) = O(D + τ) rounds.
	n, k := 1<<12, 600
	p, err := SolveParams(n, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{
		graph.NewLine(k),
		graph.NewGrid(20, 30),
		graph.NewRandomConnected(k, 0.01, 2),
	} {
		r := rng.New(77)
		res, err := RunUniformity(g, drawTokens(g, dist.NewUniform(n), r), p, Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		d := g.Diameter()
		bound := 8*(d+p.Tau) + 30
		if res.Stats.Rounds > bound {
			t.Errorf("%s: %d rounds > %d (D=%d, τ=%d)",
				g.Name(), res.Stats.Rounds, bound, d, p.Tau)
		}
	}
}

func TestUniformityBandwidthIsCONGEST(t *testing.T) {
	n, k := 1<<12, 200
	p, err := SolveParams(n, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.NewRandomConnected(k, 0.02, 9)
	r := rng.New(3)
	res, err := RunUniformity(g, drawTokens(g, dist.NewUniform(n), r), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxMessageBytes > congestBandwidth {
		t.Fatalf("max message %d bytes exceeds CONGEST budget %d",
			res.Stats.MaxMessageBytes, congestBandwidth)
	}
}

func TestRunUniformityRejectsTinyTau(t *testing.T) {
	g := graph.NewLine(4)
	if _, err := RunUniformity(g, []uint64{1, 2, 3, 4}, Params{Tau: 1, T: 1}, Options{}); err == nil {
		t.Fatal("τ=1 accepted for uniformity protocol")
	}
}

func TestBuildNodesValidation(t *testing.T) {
	g := graph.NewLine(3)
	if _, _, err := buildNodes(g, []uint64{1}, ModePackagingOnly, 2, 0, nil); err == nil {
		t.Error("token/node mismatch accepted")
	}
	if _, _, err := buildNodes(g, []uint64{1, 2, 3}, ModePackagingOnly, 0, 0, nil); err == nil {
		t.Error("τ=0 accepted")
	}
}

func TestSingleNodeDegenerate(t *testing.T) {
	// k=1: the lone node is the root, packages nothing (its token is the
	// leftover), and accepts.
	g := graph.New(1, "single")
	res, err := RunTokenPackaging(g, []uint64{7}, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 0 || res.Discarded != 1 {
		t.Fatalf("packages=%d discarded=%d, want 0/1", len(res.Packages), res.Discarded)
	}
}

func TestPackagesSortedWithinNetworkHaveAllTokens(t *testing.T) {
	g := graph.NewBalancedTree(20, 3)
	tokens := make([]uint64, 20)
	for i := range tokens {
		tokens[i] = uint64(100 * i)
	}
	res, err := RunTokenPackaging(g, tokens, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, pkg := range res.Packages {
		got = append(got, pkg...)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 20-res.Discarded {
		t.Fatalf("%d tokens packaged, want %d", len(got), 20-res.Discarded)
	}
	// No token appears twice.
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatalf("token %d packaged twice", got[i])
		}
	}
}

func TestPredictedTau(t *testing.T) {
	if got := PredictedTau(1000, 10, 1); math.Abs(got-100) > 1e-9 {
		t.Fatalf("PredictedTau = %v, want 100", got)
	}
	if got := PredictedTau(1000, 10, 0.5); math.Abs(got-1600) > 1e-9 {
		t.Fatalf("PredictedTau(eps=0.5) = %v, want 1600", got)
	}
}

func BenchmarkTokenPackagingGrid(b *testing.B) {
	g := graph.NewGrid(10, 10)
	tokens := make([]uint64, g.N())
	for i := range tokens {
		tokens[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTokenPackaging(g, tokens, 5, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUniformityProtocol(b *testing.B) {
	n, k := 1<<12, 400
	p, err := SolveParams(n, k, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := graph.NewGrid(20, 20)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunUniformity(g, drawTokens(g, dist.NewUniform(n), r), p, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUnknownKDiscoversNetworkSize(t *testing.T) {
	// The unknown-k extension: nodes are never told k; the root must
	// discover it exactly and derive working parameters.
	n, eps := 1<<12, 1.0
	for _, g := range []*graph.Graph{
		graph.NewGrid(20, 30),
		graph.NewRandomConnected(500, 0.01, 4),
		graph.NewLine(200),
	} {
		r := rng.New(9)
		tokens := make([]uint64, g.N())
		for i := range tokens {
			tokens[i] = uint64(dist.NewUniform(n).Sample(r))
		}
		res, err := RunUniformityUnknownK(g, tokens, n, eps)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if res.DiscoveredK != g.N() {
			t.Errorf("%s: root discovered k=%d, want %d", g.Name(), res.DiscoveredK, g.N())
		}
		if res.Tau < 2 || res.T < 1 {
			t.Errorf("%s: derived params τ=%d T=%d", g.Name(), res.Tau, res.T)
		}
		// The packaging invariants must hold with the derived τ.
		total := res.Discarded
		for _, pkg := range res.Packages {
			if len(pkg) != res.Tau {
				t.Errorf("%s: package size %d != derived τ %d", g.Name(), len(pkg), res.Tau)
			}
			total += len(pkg)
		}
		if total != g.N() {
			t.Errorf("%s: token conservation broken: %d != %d", g.Name(), total, g.N())
		}
	}
}

func TestUnknownKMatchesKnownKDecision(t *testing.T) {
	// With the same tokens, the unknown-k run must use the same
	// parameters the calibrated solver would give for the true k, and the
	// known-k run must agree on the verdict.
	n, eps := 1<<12, 1.0
	g := graph.NewRandomConnected(600, 0.008, 2)
	p, err := SolveParamsCalibrated(n, g.N(), eps)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	tokens := make([]uint64, g.N())
	for i := range tokens {
		tokens[i] = uint64(dist.NewHalfSupport(n).Sample(r))
	}
	unknown, err := RunUniformityUnknownK(g, tokens, n, eps)
	if err != nil {
		t.Fatal(err)
	}
	known, err := RunUniformity(g, tokens, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if unknown.Tau != p.Tau || unknown.T != p.T {
		t.Errorf("derived (τ=%d,T=%d) != solver (τ=%d,T=%d)", unknown.Tau, unknown.T, p.Tau, p.T)
	}
	if unknown.Accept != known.Accept {
		t.Errorf("verdicts differ: unknown-k %v vs known-k %v", unknown.Accept, known.Accept)
	}
}

func TestUnknownKRoundOverheadIsOneDiameter(t *testing.T) {
	// The extra COUNT wave costs O(D) more rounds, not more.
	n, eps := 1<<12, 1.0
	g := graph.NewLine(300)
	p, err := SolveParamsCalibrated(n, g.N(), eps)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	tokens := make([]uint64, g.N())
	for i := range tokens {
		tokens[i] = uint64(dist.NewUniform(n).Sample(r))
	}
	known, err := RunUniformity(g, tokens, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unknown, err := RunUniformityUnknownK(g, tokens, n, eps)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	if unknown.Stats.Rounds > known.Stats.Rounds+3*d+20 {
		t.Errorf("unknown-k took %d rounds vs known-k %d (D=%d)",
			unknown.Stats.Rounds, known.Stats.Rounds, d)
	}
}

func TestMultiSamplePerNode(t *testing.T) {
	// The s > 1 generalization: 100 nodes × 5 samples behave like 500
	// tokens — invariants hold and all samples are packaged or discarded.
	g := graph.NewRandomConnected(100, 0.05, 3)
	const sPer = 5
	per := make([][]uint64, g.N())
	total := 0
	for v := range per {
		per[v] = make([]uint64, sPer)
		for j := range per[v] {
			per[v][j] = uint64(1000*v + j)
			total++
		}
	}
	p := Params{Tau: 7, T: 3}
	res, err := RunUniformityMulti(g, per, p)
	if err != nil {
		t.Fatal(err)
	}
	packaged := res.Discarded
	seen := make(map[uint64]bool)
	for _, pkg := range res.Packages {
		if len(pkg) != p.Tau {
			t.Fatalf("package size %d", len(pkg))
		}
		for _, tok := range pkg {
			if seen[tok] {
				t.Fatalf("token %d packaged twice", tok)
			}
			seen[tok] = true
		}
		packaged += len(pkg)
	}
	if packaged != total {
		t.Fatalf("packaged+discarded %d, want %d", packaged, total)
	}
	if res.Discarded > p.Tau-1 {
		t.Fatalf("discarded %d > τ−1", res.Discarded)
	}
}

func TestMultiSampleEmptyNodesAllowed(t *testing.T) {
	// Nodes with zero samples still participate in the tree and pipeline.
	g := graph.NewLine(6)
	per := make([][]uint64, 6)
	per[0] = []uint64{1, 2, 3}
	per[3] = []uint64{4}
	res, err := RunUniformityMulti(g, per, Params{Tau: 2, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	packaged := res.Discarded
	for _, pkg := range res.Packages {
		packaged += len(pkg)
	}
	if packaged != 4 {
		t.Fatalf("accounted %d tokens, want 4", packaged)
	}
}
