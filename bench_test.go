package unifdist_test

import (
	"io"
	"os"
	"testing"

	unifdist "github.com/unifdist/unifdist"
	"github.com/unifdist/unifdist/internal/experiment"
)

// The benchmarks below regenerate the experiment tables of DESIGN.md /
// EXPERIMENTS.md, one per reproduced theorem. Each benchmark iteration is
// one full quick-mode experiment; set UNIFDIST_BENCH_VERBOSE=1 to print the
// tables while benchmarking.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiment.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var out io.Writer = io.Discard
	if os.Getenv("UNIFDIST_BENCH_VERBOSE") != "" {
		out = os.Stdout
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(experiment.NewRunContext(experiment.Quick, uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		if err := tbl.Render(out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1GapTester(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2ANDRule(b *testing.B)        { benchExperiment(b, "E2") }
func BenchmarkE3Threshold(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkE4BelowBound(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5Asymmetric(b *testing.B)     { benchExperiment(b, "E5") }
func BenchmarkE6TokenPackaging(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7Congest(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8Local(b *testing.B)          { benchExperiment(b, "E8") }
func BenchmarkE9SMPEquality(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10Baseline(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE11Reduction(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12Ablation(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkE13Theorem71(b *testing.B)     { benchExperiment(b, "E13") }
func BenchmarkE14SMPBaselines(b *testing.B)  { benchExperiment(b, "E14") }
func BenchmarkE15Placement(b *testing.B)     { benchExperiment(b, "E15") }

// Micro-benchmarks of the library's hot paths, for profiling regressions.

func BenchmarkSingleCollisionRun(b *testing.B) {
	const n = 1 << 20
	sc, err := unifdist.NewSingleCollision(n, 0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	u := unifdist.NewUniform(n)
	r := unifdist.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = unifdist.RunTester(sc, u, r)
	}
}

// BenchmarkThresholdNetworkTrial times one full indexed trial (RunAt, all
// k = 2000 votes) with a reused generator and scratch.
func BenchmarkThresholdNetworkTrial(b *testing.B) {
	const (
		n = 1 << 16
		k = 2000
	)
	cfg, err := unifdist.SolveThreshold(n, k, 1)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := unifdist.BuildThreshold(cfg)
	if err != nil {
		b.Fatal(err)
	}
	u := unifdist.NewUniform(n)
	g, sc := unifdist.NewRNG(0), nw.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = nw.RunAt(u, 1, uint64(i), g, sc)
	}
}

func BenchmarkCongestUniformityRun(b *testing.B) {
	const (
		n = 1 << 12
		k = 400
	)
	p, err := unifdist.SolveCongestCalibrated(n, k, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := unifdist.NewGrid(20, 20)
	u := unifdist.NewUniform(n)
	r := unifdist.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tokens, _ := drawRun(g, u, r)
		if _, err := unifdist.RunCongestUniformity(g, tokens, p, unifdist.CongestOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLubyMISGrid(b *testing.B) {
	g := unifdist.NewGrid(20, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := unifdist.LubyMIS(g, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEqualityProtocol(b *testing.B) {
	e, err := unifdist.NewEquality(1024, 0.01, 2)
	if err != nil {
		b.Fatal(err)
	}
	r := unifdist.NewRNG(1)
	x := make([]byte, 128)
	y := make([]byte, 128)
	y[5] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(x, y, r); err != nil {
			b.Fatal(err)
		}
	}
}

// Hot-path kernels: batch sampling and scratch collision statistics
// (BenchmarkThresholdNetworkTrial times the allocation-free network trial).
// BENCH_PR2.json records these (see cmd/benchjson); the *Scalar/Map
// counterparts live next to the kernels in internal/dist for before/after
// comparison.

func benchSampleInto(b *testing.B, d unifdist.Distribution) {
	buf := make([]int, 4096)
	r := unifdist.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unifdist.SampleInto(d, buf, r)
	}
}

func BenchmarkSampleIntoUniform(b *testing.B) {
	benchSampleInto(b, unifdist.NewUniform(1<<20))
}

func BenchmarkSampleIntoTwoBump(b *testing.B) {
	benchSampleInto(b, unifdist.NewTwoBump(1<<20, 1, 7))
}

func BenchmarkSampleIntoHistogram(b *testing.B) {
	benchSampleInto(b, unifdist.NewZipf(1<<20, 1.1))
}

func BenchmarkHasCollisionScratch(b *testing.B) {
	const n = 1 << 16
	samples := make([]int, 256)
	unifdist.SampleInto(unifdist.NewUniform(n), samples, unifdist.NewRNG(1))
	sc := unifdist.NewCollisionScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sc.HasCollision(n, samples)
	}
}

// BenchmarkEstimateErrorAt is the estimator behind the 0-round tables on
// the k = 2000 threshold network: 64 indexed trials per op, stopping each
// at the rule's early decision.
func BenchmarkEstimateErrorAt(b *testing.B) {
	const (
		n = 1 << 16
		k = 2000
	)
	cfg, err := unifdist.SolveThreshold(n, k, 1)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := unifdist.BuildThreshold(cfg)
	if err != nil {
		b.Fatal(err)
	}
	u := unifdist.NewUniform(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nw.EstimateErrorAt(u, true, 64, uint64(i))
	}
}
