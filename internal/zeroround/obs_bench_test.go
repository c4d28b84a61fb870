package zeroround

import (
	"testing"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/rng"
)

// The telemetry overhead benchmarks: BenchmarkEstimateTelemetryDisabled
// must stay within 5% of BenchmarkEstimateBaseline (the nil-Obs fast path
// is one pointer check per estimate call), and ...Enabled bounds the cost
// of leaving the registry attached across the parallel trial pool. The
// workload matches one BenchmarkE2ANDRule cell (E2's k=1000 row at quick
// scale).
func benchEstimate(b *testing.B, reg *obs.Registry) {
	b.Helper()
	cfg, err := SolveAND(1<<20, 1000, 1.0, 1.0/3)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := BuildAND(cfg)
	if err != nil {
		b.Fatal(err)
	}
	nw.Obs = reg
	d := dist.NewUniform(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.EstimateErrorAt(d, true, 25, uint64(i))
	}
}

// BenchmarkEstimateBaseline is the pre-telemetry workload (no Obs field
// consulted beyond the nil check).
func BenchmarkEstimateBaseline(b *testing.B) { benchEstimate(b, nil) }

// BenchmarkEstimateTelemetryDisabled is identical to Baseline — it
// documents that a nil registry IS the disabled path.
func BenchmarkEstimateTelemetryDisabled(b *testing.B) { benchEstimate(b, nil) }

// BenchmarkEstimateTelemetryEnabled measures the cost of per-trial latency
// histograms and counters with a live registry.
func BenchmarkEstimateTelemetryEnabled(b *testing.B) { benchEstimate(b, obs.NewRegistry()) }

// TestParallelTelemetryCounts verifies the instrumented estimator records
// exactly one observation per trial, on the pool and on one worker.
func TestParallelTelemetryCounts(t *testing.T) {
	cfg, err := SolveAND(1<<16, 100, 1.0, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := BuildAND(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	nw.Obs = reg
	const trials = 40
	nw.EstimateErrorAt(dist.NewUniform(1<<16), true, trials, 1)
	nw.Workers = 1
	nw.EstimateErrorAt(dist.NewUniform(1<<16), true, trials, 2)
	s := reg.Snapshot()
	if got := s.Counters["zeroround.trials"]; got != 2*trials {
		t.Errorf("zeroround.trials = %d, want %d", got, 2*trials)
	}
	if h := s.Histograms["zeroround.trial_ns"]; h.Count != 2*trials {
		t.Errorf("trial_ns count = %d, want %d", h.Count, 2*trials)
	}
	if s.Counters["zeroround.wrong"] > 2*trials {
		t.Errorf("zeroround.wrong = %d out of range", s.Counters["zeroround.wrong"])
	}
}

// TestParallelDeterminismWithTelemetry: attaching a registry must not
// change the estimate (randomness assignment is unchanged).
func TestParallelDeterminismWithTelemetry(t *testing.T) {
	cfg, err := SolveAND(1<<16, 200, 1.0, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	build := func(reg *obs.Registry) float64 {
		nw, err := BuildAND(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nw.Obs = reg
		return nw.EstimateErrorAt(dist.NewTwoBump(1<<16, 1, 7), false, 30, rng.New(42).Uint64())
	}
	if a, b := build(nil), build(obs.NewRegistry()); a != b {
		t.Errorf("telemetry changed the estimate: %g vs %g", a, b)
	}
}
