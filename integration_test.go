package unifdist_test

import (
	"testing"

	unifdist "github.com/unifdist/unifdist"
)

// The integration tests exercise cross-module scenarios through the public
// API only — the combinations a downstream user would actually build.

// drawRun draws one token per node of g from d, then one more word: the
// LOCAL tester's MIS seed, and the word a CONGEST run once took as its
// simulator seed, so every run sees the inputs these tests always drew.
func drawRun(g *unifdist.Graph, d unifdist.Distribution, r *unifdist.RNG) ([]uint64, uint64) {
	tokens := make([]uint64, g.N())
	for v := range tokens {
		tokens[v] = uint64(d.Sample(r))
	}
	return tokens, r.Uint64()
}

// TestIntegrationIdentityTestingOverCongest combines the paper's two big
// ideas: each node applies the identity→uniformity filter locally with
// private randomness (§1), and the network then runs the full CONGEST
// uniformity protocol (Theorem 1.4) on the filtered samples.
func TestIntegrationIdentityTestingOverCongest(t *testing.T) {
	const (
		nBins = 64
		eps   = 0.8
		k     = 6000
	)
	// Known target: a discretized bell curve.
	eta := make([]float64, nBins)
	target := unifdist.NewZipf(nBins, 0.7)
	for i := range eta {
		eta[i] = target.Prob(i)
	}
	m := 8 * unifdist.GrainForEpsilon(nBins, eps)
	filter, err := unifdist.NewFilter(eta, m)
	if err != nil {
		t.Fatal(err)
	}
	// The far instances below are ≥1-far after filtering (the filter
	// preserves distances), so the network can be solved at ε=1 where the
	// calibrated regime is feasible at this k.
	params, err := unifdist.SolveCongestCalibrated(m, k, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !params.Feasible {
		t.Skipf("calibrated regime infeasible: %+v", params)
	}
	g := unifdist.NewRandomConnected(k, 0.0012, 3)
	r := unifdist.NewRNG(17)

	run := func(mu unifdist.Distribution) bool {
		filtered, err := unifdist.NewFiltered(mu, filter)
		if err != nil {
			t.Fatal(err)
		}
		tokens, _ := drawRun(g, filtered, r)
		res, err := unifdist.RunCongestUniformity(g, tokens, params, unifdist.CongestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Accept
	}

	// µ = η must be accepted in a clear majority of runs; a far µ rejected.
	acceptEta, rejectFar := 0, 0
	const reps = 5
	for i := 0; i < reps; i++ {
		if run(target) {
			acceptEta++
		}
		// Far instance: half the mass on one bin — far from the Zipf
		// target and collision-heavy after filtering.
		if !run(unifdist.NewPointMassMixture(nBins, 0, 0.5)) {
			rejectFar++
		}
	}
	if acceptEta < reps-1 {
		t.Errorf("µ=η accepted only %d/%d times", acceptEta, reps)
	}
	if rejectFar < reps-1 {
		t.Errorf("far µ rejected only %d/%d times", rejectFar, reps)
	}
}

// TestIntegrationUnknownKPipeline drives the unknown-k CONGEST extension
// through the facade.
func TestIntegrationUnknownKPipeline(t *testing.T) {
	const n = 1 << 12
	g := unifdist.NewGrid(25, 20)
	r := unifdist.NewRNG(5)
	tokens := make([]uint64, g.N())
	d := unifdist.NewUniform(n)
	for i := range tokens {
		tokens[i] = uint64(d.Sample(r))
	}
	res, err := unifdist.RunCongestUnknownK(g, tokens, n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiscoveredK != g.N() {
		t.Errorf("discovered k=%d, want %d", res.DiscoveredK, g.N())
	}
}

// TestIntegrationLocalVsCongestAgreeOnExtremes runs both multi-round
// models on the same extreme inputs; they must agree.
func TestIntegrationLocalVsCongestAgreeOnExtremes(t *testing.T) {
	const k = 600
	g := unifdist.NewRandomConnected(k, 0.01, 11)
	r := unifdist.NewRNG(23)

	// Near-point-mass on a small domain: both must reject.
	small := 1 << 10
	point := unifdist.NewPointMassMixture(small, 0, 0.99)
	congestParams, err := unifdist.SolveCongestCalibrated(small, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	tokens, _ := drawRun(g, point, r)
	cres, err := unifdist.RunCongestUniformity(g, tokens, congestParams, unifdist.CongestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	localParams := unifdist.LocalParams{N: small, K: k, Eps: 1, P: 1.0 / 3, R: 4}
	localParams.AND.M = 1
	tokens, seed := drawRun(g, point, r)
	lres, err := unifdist.RunLocalUniformity(g, tokens, localParams, seed)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Accept || lres.Accept {
		t.Errorf("near point mass: congest accept=%v local accept=%v, want both reject", cres.Accept, lres.Accept)
	}

	// Uniform over a huge domain: both must accept.
	big := 1 << 30
	u := unifdist.NewUniform(big)
	congestParams.N = big // collision probability ~0 regardless of τ/T
	tokens, _ = drawRun(g, u, r)
	cres, err = unifdist.RunCongestUniformity(g, tokens, congestParams, unifdist.CongestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	localParams.N = big
	tokens, seed = drawRun(g, u, r)
	lres, err = unifdist.RunLocalUniformity(g, tokens, localParams, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !cres.Accept || !lres.Accept {
		t.Errorf("huge uniform: congest accept=%v local accept=%v, want both accept", cres.Accept, lres.Accept)
	}
}

// TestIntegrationAsymmetricMatchesSymmetricUnitCosts checks Section 4's
// symmetric-recovery claim end to end through the facade.
func TestIntegrationAsymmetricMatchesSymmetricUnitCosts(t *testing.T) {
	const (
		n = 1 << 16
		k = 8000
	)
	costs := make([]float64, k)
	for i := range costs {
		costs[i] = 1
	}
	asym, err := unifdist.SolveAsymmetricThreshold(n, 1, costs)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := unifdist.SolveThreshold(n, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(asym.Samples[0]) / float64(sym.SamplesPerNode)
	if ratio < 0.75 || ratio > 1.35 {
		t.Errorf("unit-cost asymmetric %d samples vs symmetric %d", asym.Samples[0], sym.SamplesPerNode)
	}
}

// TestIntegrationEqualityChainsThroughTester verifies the Theorem 7.1
// bridge through the public API of the smp reduction (via internal
// helpers re-exported on the facade where applicable).
func TestIntegrationEqualityChainsThroughTester(t *testing.T) {
	e, err := unifdist.NewEquality(512, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := unifdist.NewRNG(2)
	x := make([]byte, 64)
	for i := range x {
		x[i] = byte(i * 7)
	}
	acc, err := e.Run(x, x, r)
	if err != nil {
		t.Fatal(err)
	}
	if !acc {
		t.Fatal("equal inputs rejected")
	}
	if e.MessageBits() >= 512 {
		t.Fatalf("message cost %d not sublinear", e.MessageBits())
	}
}
