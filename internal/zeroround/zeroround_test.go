package zeroround

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/tester"
)

func TestANDRule(t *testing.T) {
	r := ANDRule{}
	if !r.Accept(0, 10) {
		t.Error("no rejections should accept")
	}
	if r.Accept(1, 10) {
		t.Error("one rejection should reject")
	}
	if r.Accept(10, 10) {
		t.Error("all rejections should reject")
	}
}

func TestThresholdRule(t *testing.T) {
	r := ThresholdRule{T: 3}
	if !r.Accept(0, 10) || !r.Accept(2, 10) {
		t.Error("below threshold should accept")
	}
	if r.Accept(3, 10) || r.Accept(10, 10) {
		t.Error("at/above threshold should reject")
	}
}

func TestRuleMonotonicity(t *testing.T) {
	// Both rules are monotone: more rejections never flips reject→accept.
	f := func(tRaw, r1Raw, r2Raw uint8) bool {
		k := 50
		thr := ThresholdRule{T: int(tRaw%50) + 1}
		r1, r2 := int(r1Raw)%51, int(r2Raw)%51
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		if !thr.Accept(r1, k) && thr.Accept(r2, k) {
			return false
		}
		and := ANDRule{}
		return !(!and.Accept(r1, k) && and.Accept(r2, k))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewNetworkErrors(t *testing.T) {
	if _, err := NewNetwork(nil, ANDRule{}); err == nil {
		t.Error("empty network accepted")
	}
	sc, err := tester.NewSingleCollision(100, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNetwork([]tester.Tester{sc}, nil); err == nil {
		t.Error("nil rule accepted")
	}
}

func TestCP(t *testing.T) {
	// For p = 1/3: C_p = ln 3 / ln 1.5 ≈ 2.7095 (paper: "α ≈ 2.7").
	got := CP(1.0 / 3)
	if math.Abs(got-2.7095) > 0.001 {
		t.Fatalf("C_{1/3} = %v, want ≈ 2.7095", got)
	}
	// C_p grows as p shrinks (harder target ⇒ bigger gap needed).
	if CP(0.1) <= CP(1.0/3) {
		t.Error("C_p should increase as p decreases")
	}
}

func TestSolveANDBasics(t *testing.T) {
	cfg, err := SolveAND(1<<20, 1000, 1, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.M < 1 {
		t.Fatalf("m = %d", cfg.M)
	}
	if cfg.SamplesPerNode < 2 {
		t.Fatalf("samples per node = %d", cfg.SamplesPerNode)
	}
	if cfg.RequiredGap < 2.7 || cfg.RequiredGap > 2.72 {
		t.Fatalf("required gap = %v", cfg.RequiredGap)
	}
}

func TestSolveANDSampleSavings(t *testing.T) {
	// Theorem 1.1's point: in the feasible regime, per-node samples shrink
	// as k grows (fixed n, eps) and stay well below a solo tester's
	// Θ(√n/ε²). With ε=1 the rigorous constants need k ≳ 10⁴.
	n, eps := 1<<24, 1.0
	single, err := tester.SolveGap(n, 0.5, eps)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.MaxInt
	for _, k := range []int{10000, 100000, 1000000} {
		cfg, err := SolveAND(n, k, eps, 1.0/3)
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.Feasible {
			t.Fatalf("k=%d: expected feasible config, got %+v", k, cfg)
		}
		if cfg.SamplesPerNode >= prev {
			t.Errorf("k=%d: samples %d did not decrease from %d", k, cfg.SamplesPerNode, prev)
		}
		if cfg.SamplesPerNode >= single.S {
			t.Errorf("k=%d: samples %d not below solo %d", k, cfg.SamplesPerNode, single.S)
		}
		prev = cfg.SamplesPerNode
	}
}

func TestSolveANDErrors(t *testing.T) {
	if _, err := SolveAND(1000, 0, 1, 1.0/3); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := SolveAND(1000, 10, 1, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := SolveAND(1000, 10, 1, 1); err == nil {
		t.Error("p=1 accepted")
	}
	if _, err := SolveAND(1000, 10, 0, 1.0/3); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestBuildANDSeparation(t *testing.T) {
	// Even in a non-rigorous (small) regime, the AND network must separate
	// uniform from far: it should reject the far instance strictly more
	// often. We use a regime where the node gap is meaningful.
	n, k, eps := 1<<16, 64, 1.0
	cfg, err := SolveAND(n, k, eps, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := BuildAND(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nw.K() != k {
		t.Fatalf("network size %d, want %d", nw.K(), k)
	}
	r := rng.New(7)
	const trials = 150
	errU := nw.EstimateErrorAt(dist.NewUniform(n), true, trials, r.Uint64())
	errFar := nw.EstimateErrorAt(dist.NewTwoBump(n, eps, 3), false, trials, r.Uint64())
	// errU = Pr[some node rejects uniform]; errFar = Pr[no node rejects far].
	// Separation: accepting far must be less likely than accepting uniform.
	if 1-errU <= errFar {
		t.Fatalf("no separation: accept-uniform %v ≤ accept-far %v", 1-errU, errFar)
	}
}

func TestSolveThresholdBasics(t *testing.T) {
	cfg, err := SolveThreshold(1<<16, 8000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Feasible {
		t.Fatalf("expected feasible config, got %+v", cfg)
	}
	if cfg.T < 1 {
		t.Fatalf("T = %d", cfg.T)
	}
	if cfg.EtaFar <= cfg.EtaUniform {
		t.Fatalf("ηFar %v ≤ ηU %v", cfg.EtaFar, cfg.EtaUniform)
	}
	// T must sit strictly between the two expectations.
	if float64(cfg.T) <= cfg.EtaUniform || float64(cfg.T) >= cfg.EtaFar {
		t.Fatalf("T=%d outside (ηU=%v, ηFar=%v)", cfg.T, cfg.EtaUniform, cfg.EtaFar)
	}
}

func TestSolveThresholdScaling(t *testing.T) {
	// Theorem 1.2: s = Θ(√(n/k)/ε²). Quadrupling k should roughly halve s.
	cfg1, err := SolveThreshold(1<<20, 8000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := SolveThreshold(1<<20, 32000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(cfg1.SamplesPerNode) / float64(cfg2.SamplesPerNode)
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("4×k changed s by %vx, want ~2x", ratio)
	}
	// T is Θ(1/ε⁴), independent of k.
	if d := math.Abs(float64(cfg1.T-cfg2.T)) / float64(cfg1.T); d > 0.25 {
		t.Errorf("T changed by %v%% with k; should be k-independent", d*100)
	}
}

func TestSolveThresholdErrors(t *testing.T) {
	if _, err := SolveThreshold(1000, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := SolveThreshold(1000, 10, -1); err == nil {
		t.Error("eps<0 accepted")
	}
}

func TestThresholdNetworkErrorBound(t *testing.T) {
	// Theorem 1.2 end-to-end: error ≤ 1/3 on both sides in a feasible
	// regime.
	n, k, eps := 1<<16, 8000, 1.0
	cfg, err := SolveThreshold(n, k, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Feasible {
		t.Skipf("regime infeasible: %+v", cfg)
	}
	nw, err := BuildThreshold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(99)
	const trials = 60
	errU := nw.EstimateErrorAt(dist.NewUniform(n), true, trials, r.Uint64())
	errFar := nw.EstimateErrorAt(dist.NewTwoBump(n, eps, 5), false, trials, r.Uint64())
	if errU > 1.0/3 {
		t.Errorf("uniform error %v > 1/3", errU)
	}
	if errFar > 1.0/3 {
		t.Errorf("far error %v > 1/3", errFar)
	}
}

func TestRunReturnsRejectCounts(t *testing.T) {
	n := 1 << 16
	cfg, err := SolveThreshold(n, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := BuildThreshold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	_, rejects := nw.RunAt(dist.NewUniform(n), r.Uint64(), 0, nil, nil)
	if rejects < 0 || rejects > nw.K() {
		t.Fatalf("rejects = %d out of range [0, %d]", rejects, nw.K())
	}
}

func TestTotalAndMaxSamples(t *testing.T) {
	sc, err := tester.NewSingleCollision(1000, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	am, err := tester.NewAmplified(1000, 0.1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork([]tester.Tester{sc, am}, ANDRule{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := nw.TotalSamples(), sc.SampleSize()+am.SampleSize(); got != want {
		t.Errorf("TotalSamples = %d, want %d", got, want)
	}
	if got, want := nw.MaxSamplesPerNode(), am.SampleSize(); got != want {
		t.Errorf("MaxSamplesPerNode = %d, want %d", got, want)
	}
}

func TestAsymmetricThresholdRecoversSymmetric(t *testing.T) {
	// Section 4: with all costs 1, ‖T‖₂ = √k and the per-node sample count
	// must match the symmetric solution up to rounding and the solvers'
	// shared constants.
	n, k, eps := 1<<20, 8000, 1.0
	costs := make([]float64, k)
	for i := range costs {
		costs[i] = 1
	}
	asym, err := SolveAsymmetricThreshold(n, eps, costs)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := SolveThreshold(n, k, eps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < k; i++ {
		if asym.Samples[i] != asym.Samples[0] {
			t.Fatalf("unit costs but asymmetric samples: node %d has %d vs %d", i, asym.Samples[i], asym.Samples[0])
		}
	}
	ratio := float64(asym.Samples[0]) / float64(sym.SamplesPerNode)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("asymmetric %d vs symmetric %d samples (ratio %v)", asym.Samples[0], sym.SamplesPerNode, ratio)
	}
	if got, want := asym.Norm, math.Sqrt(float64(k)); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("‖T‖₂ = %v, want √k = %v", got, want)
	}
}

func TestAsymmetricThresholdCostProportionality(t *testing.T) {
	// Expensive nodes must draw fewer samples; everyone pays ≈ the same
	// cost.
	n, eps := 1<<20, 1.0
	costs := []float64{1, 1, 2, 4, 8}
	// Replicate to a reasonable network size.
	full := make([]float64, 0, 1000)
	for len(full) < 1000 {
		full = append(full, costs...)
	}
	cfg, err := SolveAsymmetricThreshold(n, eps, full)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		for j := range full {
			if full[i] < full[j] && cfg.Samples[i] < cfg.Samples[j] {
				t.Fatalf("node %d (cost %v) got %d samples < node %d (cost %v) with %d",
					i, full[i], cfg.Samples[i], j, full[j], cfg.Samples[j])
			}
		}
		if len(full) > 10 {
			break // pairwise check on the first node is enough
		}
	}
	// Realized max cost within rounding of the solver's C.
	if got := cfg.MaxCost(); got > cfg.Cost*1.5+8 {
		t.Errorf("max individual cost %v far above planned %v", got, cfg.Cost)
	}
}

func TestAsymmetricThresholdEndToEnd(t *testing.T) {
	n, eps := 1<<16, 1.0
	full := make([]float64, 2000)
	for i := range full {
		full[i] = 1 + float64(i%4) // costs 1..4
	}
	cfg, err := SolveAsymmetricThreshold(n, eps, full)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := BuildAsymmetric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	const trials = 40
	errU := nw.EstimateErrorAt(dist.NewUniform(n), true, trials, r.Uint64())
	errFar := nw.EstimateErrorAt(dist.NewTwoBump(n, eps, 21), false, trials, r.Uint64())
	if errU > 0.4 {
		t.Errorf("uniform error %v too high", errU)
	}
	if errFar > 0.4 {
		t.Errorf("far error %v too high", errFar)
	}
}

func TestAsymmetricANDBasics(t *testing.T) {
	n, eps, p := 1<<20, 1.0, 1.0/3
	costs := []float64{1, 2, 4}
	cfg, err := SolveAsymmetricAND(n, eps, p, costs)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.M < 1 {
		t.Fatalf("m = %d", cfg.M)
	}
	if cfg.T != 0 {
		t.Fatalf("AND config has threshold %d", cfg.T)
	}
	// Cheaper nodes draw at least as many samples.
	if cfg.Samples[0] < cfg.Samples[2] {
		t.Errorf("cost-1 node has %d samples < cost-4 node's %d", cfg.Samples[0], cfg.Samples[2])
	}
	// Completeness budget: Σδ_i should be ≈ ln(1/(1−p)) (it can be below
	// due to sample rounding, and is slightly above only via the min-clamp).
	total := 0.0
	for _, d := range cfg.Deltas {
		total += d
	}
	if total > 2*math.Log(1/(1-p)) {
		t.Errorf("Σδ = %v far above budget %v", total, math.Log(1/(1-p)))
	}
}

func TestAsymmetricANDUnitCostsNorm(t *testing.T) {
	n, eps, p := 1<<20, 1.0, 1.0/3
	k := 100
	costs := make([]float64, k)
	for i := range costs {
		costs[i] = 1
	}
	cfg, err := SolveAsymmetricAND(n, eps, p, costs)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ‖T‖₂ₘ = k^{1/(2m)} for unit costs.
	want := math.Pow(float64(k), 1/float64(2*cfg.M))
	if math.Abs(cfg.Norm-want)/want > 1e-9 {
		t.Fatalf("‖T‖₂ₘ = %v, want %v", cfg.Norm, want)
	}
}

func TestAsymmetricErrors(t *testing.T) {
	if _, err := SolveAsymmetricThreshold(1000, 1, nil); err == nil {
		t.Error("empty costs accepted")
	}
	if _, err := SolveAsymmetricThreshold(1000, 1, []float64{1, 0}); err == nil {
		t.Error("zero cost accepted")
	}
	if _, err := SolveAsymmetricThreshold(1000, 3, []float64{1}); err == nil {
		t.Error("eps>2 accepted")
	}
	if _, err := SolveAsymmetricAND(1000, 1, 0.5, []float64{-1}); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := SolveAsymmetricAND(1000, 1, 1.5, []float64{1}); err == nil {
		t.Error("p>1 accepted")
	}
}

func TestBuildAsymmetricAND(t *testing.T) {
	n, eps, p := 1<<16, 1.0, 1.0/3
	costs := make([]float64, 32)
	for i := range costs {
		costs[i] = 1 + float64(i%2)
	}
	cfg, err := SolveAsymmetricAND(n, eps, p, costs)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := BuildAsymmetric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nw.K() != len(costs) {
		t.Fatalf("network size %d", nw.K())
	}
	if _, ok := nw.Rule().(ANDRule); !ok {
		t.Fatalf("rule %T, want ANDRule", nw.Rule())
	}
	r := rng.New(5)
	accept, _ := nw.RunAt(dist.NewUniform(n), r.Uint64(), 0, nil, nil)
	_ = accept // smoke: must not panic
}

// BenchmarkThresholdNetworkRunAt times one full indexed trial (k = 1000
// votes, no early stopping) with a reused generator and scratch.
func BenchmarkThresholdNetworkRunAt(b *testing.B) {
	n, k := 1<<16, 1000
	cfg, err := SolveThreshold(n, k, 1)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := BuildThreshold(cfg)
	if err != nil {
		b.Fatal(err)
	}
	u := dist.NewUniform(n)
	g, sc := rng.New(0), nw.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = nw.RunAt(u, 1, uint64(i), g, sc)
	}
}

// TestEarlyDeciderMatchesAccept checks that Decided, whenever it claims the
// verdict is fixed, agrees with Accept for every completion of the
// remaining votes.
func TestEarlyDeciderMatchesAccept(t *testing.T) {
	const k = 12
	rules := []Rule{ANDRule{}, ThresholdRule{T: 1}, ThresholdRule{T: 4}, ThresholdRule{T: k}}
	for _, rule := range rules {
		ed, ok := rule.(EarlyDecider)
		if !ok {
			t.Fatalf("%s does not implement EarlyDecider", rule.Name())
		}
		for rejects := 0; rejects <= k; rejects++ {
			for remaining := 0; remaining <= k-rejects; remaining++ {
				accept, done := ed.Decided(rejects, remaining)
				if remaining == 0 && !done {
					t.Errorf("%s: Decided(%d, 0) not done", rule.Name(), rejects)
					continue
				}
				if !done {
					continue
				}
				// Every completion must yield the claimed verdict.
				for extra := 0; extra <= remaining; extra++ {
					if got := rule.Accept(rejects+extra, k); got != accept {
						t.Errorf("%s: Decided(%d, %d) = %v but Accept(%d) = %v",
							rule.Name(), rejects, remaining, accept, rejects+extra, got)
					}
				}
			}
		}
	}
}
