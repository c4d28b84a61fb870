package cluster

import (
	"testing"
	"time"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/zeroround"
)

func andNetwork(t *testing.T, n, k int) *zeroround.Network {
	t.Helper()
	cfg, err := zeroround.SolveAND(n, k, 1.0, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := zeroround.BuildAND(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func thresholdNetwork(t *testing.T, n, k int) *zeroround.Network {
	t.Helper()
	cfg, err := zeroround.SolveThreshold(n, k, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := zeroround.BuildThreshold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// checkDifferential runs a fault-free cluster session and demands
// trial-for-trial agreement — verdicts, reject counts, vote counts — with
// the in-process indexed reference execution RunAt at the same base seed.
func checkDifferential(t *testing.T, nw *zeroround.Network, d dist.Distribution, cfg Config, run func(Config, *zeroround.Network, dist.Distribution, *FaultPlan) (*Report, error)) {
	t.Helper()
	rep, err := run(cfg, nw, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.K != nw.K() || rep.Trials != cfg.Trials {
		t.Fatalf("report shape (k=%d, trials=%d), want (%d, %d)", rep.K, rep.Trials, nw.K(), cfg.Trials)
	}
	if rep.MissingVotes != 0 || rep.QuorumTrials != 0 {
		t.Fatalf("fault-free run reported %d missing votes over %d quorum trials", rep.MissingVotes, rep.QuorumTrials)
	}
	for tr := 0; tr < cfg.Trials; tr++ {
		wantAccept, wantRejects := nw.RunAt(d, cfg.BaseSeed, uint64(tr), nil, nil)
		if rep.Verdicts[tr] != wantAccept {
			t.Errorf("trial %d: cluster verdict %v, reference %v", tr, rep.Verdicts[tr], wantAccept)
		}
		if rep.Rejects[tr] != wantRejects {
			t.Errorf("trial %d: cluster saw %d rejects, reference %d", tr, rep.Rejects[tr], wantRejects)
		}
		if rep.Votes[tr] != nw.K() {
			t.Errorf("trial %d: %d votes arrived, want %d", tr, rep.Votes[tr], nw.K())
		}
	}
}

// TestErrorRateMatchesEstimateErrorAt: a clean session's error rate equals
// the paper tables' estimate at the same base, on both inputs and for both
// wanted verdicts — the tables and the cluster run one sampling contract.
func TestErrorRateMatchesEstimateErrorAt(t *testing.T) {
	nw := thresholdNetwork(t, 64, 60)
	const trials, base = 24, 5
	for _, d := range []dist.Distribution{dist.NewUniform(64), dist.NewTwoBump(64, 1.0, 9)} {
		rep, err := RunPipe(Config{Trials: trials, BaseSeed: base}, nw, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []bool{true, false} {
			if got, est := rep.ErrorRate(want), nw.EstimateErrorAt(d, want, trials, base); got != est {
				t.Errorf("%s want=%v: session error rate %v, EstimateErrorAt %v", d.Name(), want, got, est)
			}
		}
	}
}

func TestPipeClusterMatchesReferenceThreshold(t *testing.T) {
	// E3 shape (Theorem 1.2): single-collision nodes under the threshold
	// rule. The tiny domain makes collisions — and thus rejecting votes —
	// frequent, so the trial-for-trial comparison exercises mixed verdicts.
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 9)
	for _, seed := range []uint64{1, 77} {
		checkDifferential(t, nw, d, Config{Trials: 12, BaseSeed: seed}, RunPipe)
	}
}

func TestPipeClusterMatchesReferenceAND(t *testing.T) {
	// E2 shape (Theorem 1.1): amplified nodes under the AND rule.
	nw := andNetwork(t, 1<<10, 16)
	d := dist.NewUniform(1 << 10)
	for _, seed := range []uint64{3, 41} {
		checkDifferential(t, nw, d, Config{Trials: 8, BaseSeed: seed}, RunPipe)
	}
}

func TestTCPClusterMatchesReference(t *testing.T) {
	nw := thresholdNetwork(t, 64, 40)
	d := dist.NewTwoBump(64, 1.0, 5)
	checkDifferential(t, nw, d, Config{Trials: 8, BaseSeed: 5}, RunTCP)
}

func TestPipeClusterDeterministicAcrossRuns(t *testing.T) {
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 4)
	cfg := Config{Trials: 10, BaseSeed: 1234}
	first, err := RunPipe(cfg, nw, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		got, err := RunPipe(cfg, nw, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		for tr := range got.Verdicts {
			if got.Verdicts[tr] != first.Verdicts[tr] || got.Rejects[tr] != first.Rejects[tr] {
				t.Fatalf("repeat %d trial %d: (%v, %d) vs first (%v, %d)", rep, tr,
					got.Verdicts[tr], got.Rejects[tr], first.Verdicts[tr], first.Rejects[tr])
			}
		}
	}
}

func TestFaultInjectionDropWithinErrorBound(t *testing.T) {
	// Theorem 1.2 shape with 10% of votes dropped: the quorum fallback
	// (missing vote = accept) must keep both error sides within the paper's
	// 1/3, and the run must account for every lost vote.
	if testing.Short() {
		t.Skip("fault-injection bound test skipped in -short mode")
	}
	const n, k, trials = 1 << 10, 2000, 30
	cfgT, err := zeroround.SolveThreshold(n, k, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !cfgT.Feasible {
		t.Fatalf("threshold config infeasible at n=%d k=%d; pick parameters inside Theorem 1.2's regime", n, k)
	}
	nw, err := zeroround.BuildThreshold(cfgT)
	if err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{Seed: 99, Drop: 0.10}
	reg := obs.NewRegistry()
	cfg := Config{Trials: trials, BaseSeed: 17, Obs: reg}

	repU, err := RunPipe(cfg, nw, dist.NewUniform(n), plan)
	if err != nil {
		t.Fatal(err)
	}
	if repU.Stats.DeadlineExpired {
		t.Fatal("fault-free-transport session hit the safety-net deadline")
	}
	if repU.MissingVotes == 0 {
		t.Fatal("drop plan lost no votes; fault injection inert")
	}
	if got := reg.Counter("cluster.votes_missing").Value(); got < int64(repU.MissingVotes) {
		t.Errorf("votes_missing counter %d < report's %d", got, repU.MissingVotes)
	}
	if got := reg.Counter("cluster.faults_dropped").Value(); got < int64(repU.MissingVotes) {
		t.Errorf("faults_dropped counter %d < missing votes %d", got, repU.MissingVotes)
	}
	sum := 0
	for tr := 0; tr < trials; tr++ {
		if repU.Votes[tr]+repU.Missing[tr] != k {
			t.Errorf("trial %d: %d votes + %d missing != k=%d", tr, repU.Votes[tr], repU.Missing[tr], k)
		}
		sum += repU.Missing[tr]
	}
	if sum != repU.MissingVotes {
		t.Errorf("per-trial missing sums to %d, MissingVotes=%d", sum, repU.MissingVotes)
	}
	if errU := repU.ErrorRate(true); errU > 1.0/3 {
		t.Errorf("err|U = %v > 1/3 under 10%% vote drop", errU)
	}

	cfg.BaseSeed = 18
	plan = &FaultPlan{Seed: 100, Drop: 0.10}
	repFar, err := RunPipe(cfg, nw, dist.NewTwoBump(n, 1.0, 2), plan)
	if err != nil {
		t.Fatal(err)
	}
	if errFar := repFar.ErrorRate(false); errFar > 1.0/3 {
		t.Errorf("err|far = %v > 1/3 under 10%% vote drop", errFar)
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	// A drop/dup plan with no delay realizes the identical report on every
	// run: which votes are lost is a pure function of (Seed, rates).
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 4)
	cfg := Config{Trials: 8, BaseSeed: 2}
	plan := &FaultPlan{Seed: 7, Drop: 0.15, Dup: 0.10}
	first, err := RunPipe(cfg, nw, d, plan)
	if err != nil {
		t.Fatal(err)
	}
	if first.MissingVotes == 0 {
		t.Fatal("plan dropped nothing")
	}
	if first.Stats.DuplicateVotes == 0 {
		t.Fatal("plan duplicated nothing")
	}
	for rep := 0; rep < 2; rep++ {
		got, err := RunPipe(cfg, nw, d, plan)
		if err != nil {
			t.Fatal(err)
		}
		if got.MissingVotes != first.MissingVotes || got.Stats.DuplicateVotes != first.Stats.DuplicateVotes {
			t.Fatalf("repeat %d: missing=%d dup=%d, first missing=%d dup=%d", rep,
				got.MissingVotes, got.Stats.DuplicateVotes, first.MissingVotes, first.Stats.DuplicateVotes)
		}
		for tr := range got.Verdicts {
			if got.Verdicts[tr] != first.Verdicts[tr] || got.Missing[tr] != first.Missing[tr] {
				t.Fatalf("repeat %d trial %d differs", rep, tr)
			}
		}
	}
}

func TestDisconnectRecoversViaRetry(t *testing.T) {
	nw := thresholdNetwork(t, 64, 30)
	d := dist.NewTwoBump(64, 1.0, 8)
	cfg := Config{Trials: 6, BaseSeed: 4, Retries: 8, Backoff: time.Millisecond}
	plan := &FaultPlan{Seed: 3, Disconnect: 0.02}
	rep, err := RunPipe(cfg, nw, d, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Connections <= nw.K() {
		t.Fatalf("%d connections for k=%d: no disconnect was injected", rep.Stats.Connections, nw.K())
	}
	// Retries resubmit everything, so every vote eventually lands.
	if rep.MissingVotes != 0 {
		t.Fatalf("%d votes missing despite retries", rep.MissingVotes)
	}
	for tr := 0; tr < cfg.Trials; tr++ {
		wantAccept, wantRejects := nw.RunAt(d, cfg.BaseSeed, uint64(tr), nil, nil)
		if rep.Verdicts[tr] != wantAccept || rep.Rejects[tr] != wantRejects {
			t.Fatalf("trial %d: (%v, %d), reference (%v, %d)", tr,
				rep.Verdicts[tr], rep.Rejects[tr], wantAccept, wantRejects)
		}
	}
}

func TestRefereeRejectsMismatchedHello(t *testing.T) {
	nw := thresholdNetwork(t, 64, 10)
	d := dist.NewUniform(64)
	// A node configured for the wrong network size must be turned away and
	// its votes never counted.
	l := NewPipeListener()
	cfg := Config{Trials: 4, BaseSeed: 6, Deadline: 2 * time.Second}
	rf := NewReferee(nw.K(), nw.Rule(), cfg)
	done := make(chan struct{})
	var rep *Report
	go func() {
		defer close(done)
		rep, _ = rf.Serve(l)
	}()
	bad := &NodeClient{ID: 0, K: nw.K() + 1, Tester: nw.Node(0), Config: cfg, Dial: l.Dial}
	if _, err := bad.Run(d); err == nil {
		t.Error("mismatched Hello was accepted")
	}
	<-done
	if rep.Stats.Votes != 0 {
		t.Errorf("%d votes recorded from a rejected node", rep.Stats.Votes)
	}
	if rep.Stats.BadFrames == 0 {
		t.Error("rejected Hello not counted as a bad frame")
	}
	if !rep.Stats.DeadlineExpired {
		t.Error("session with no valid nodes should end on the deadline")
	}
}

func TestReportErrorRate(t *testing.T) {
	r := &Report{Trials: 4, Verdicts: []bool{true, true, false, true}}
	if got := r.ErrorRate(true); got != 0.25 {
		t.Fatalf("ErrorRate(true) = %v, want 0.25", got)
	}
	if got := r.ErrorRate(false); got != 0.75 {
		t.Fatalf("ErrorRate(false) = %v, want 0.75", got)
	}
	if got := (&Report{}).ErrorRate(true); got != 0 {
		t.Fatalf("empty report ErrorRate = %v", got)
	}
}
