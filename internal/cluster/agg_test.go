package cluster

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/wire"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// treeRun adapts RunTreePipe/RunTreeTCP to checkDifferential's runner
// signature at a fixed topology.
func treeRun(tree func(Config, *zeroround.Network, dist.Distribution, *FaultPlan, int, int) (*Report, error), fanout, depth int) func(Config, *zeroround.Network, dist.Distribution, *FaultPlan) (*Report, error) {
	return func(cfg Config, nw *zeroround.Network, d dist.Distribution, plan *FaultPlan) (*Report, error) {
		return tree(cfg, nw, d, plan, fanout, depth)
	}
}

func TestTreePipeMatchesReferenceThreshold(t *testing.T) {
	// The tree pin mirrors the flat-star differential: every (fanout,
	// depth) shard layout must land on RunAt's verdicts trial for trial,
	// because partial sums compose the same (votes, rejects) monoid the
	// flat referee folds vote by vote.
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 9)
	for _, tc := range []struct{ fanout, depth int }{
		{2, 1}, {8, 1}, {4, 2}, {2, 3},
	} {
		checkDifferential(t, nw, d, Config{Trials: 10, BaseSeed: 77},
			treeRun(RunTreePipe, tc.fanout, tc.depth))
	}
}

// TestTreeRejectsBadShape pins the tree builders' shape checks now that
// runTree also builds the flat star as its depth-0 case: RunTreePipe and
// RunTreeTCP still refuse depth < 1 and fanout < 2.
func TestTreeRejectsBadShape(t *testing.T) {
	nw := thresholdNetwork(t, 64, 8)
	d := dist.NewUniform(64)
	for _, tree := range []func(Config, *zeroround.Network, dist.Distribution, *FaultPlan, int, int) (*Report, error){RunTreePipe, RunTreeTCP} {
		for _, shape := range []struct{ fanout, depth int }{{4, 0}, {1, 1}} {
			if _, err := tree(Config{Trials: 2}, nw, d, nil, shape.fanout, shape.depth); err == nil {
				t.Errorf("fanout %d depth %d accepted", shape.fanout, shape.depth)
			}
		}
	}
}

func TestTreePipeMatchesReferenceAND(t *testing.T) {
	nw := andNetwork(t, 1<<10, 16)
	d := dist.NewUniform(1 << 10)
	checkDifferential(t, nw, d, Config{Trials: 6, BaseSeed: 41}, treeRun(RunTreePipe, 4, 2))
}

func TestTreeTCPMatchesReference(t *testing.T) {
	nw := thresholdNetwork(t, 64, 40)
	d := dist.NewTwoBump(64, 1.0, 5)
	checkDifferential(t, nw, d, Config{Trials: 8, BaseSeed: 5}, treeRun(RunTreeTCP, 4, 2))
}

func TestTreeMatchesFlatStarExactly(t *testing.T) {
	// Beyond matching the reference, the tree must reproduce the flat
	// star's full report: verdicts, rejects, votes, missing — while the
	// root hears about every single vote only through partial frames.
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 4)
	cfg := Config{Trials: 10, BaseSeed: 1234}
	flat, err := RunPipe(cfg, nw, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := RunTreePipe(cfg, nw, d, nil, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for tr := 0; tr < cfg.Trials; tr++ {
		if tree.Verdicts[tr] != flat.Verdicts[tr] || tree.Rejects[tr] != flat.Rejects[tr] ||
			tree.Votes[tr] != flat.Votes[tr] || tree.Missing[tr] != flat.Missing[tr] {
			t.Errorf("trial %d: tree (%v, %d, %d, %d) vs flat (%v, %d, %d, %d)", tr,
				tree.Verdicts[tr], tree.Rejects[tr], tree.Votes[tr], tree.Missing[tr],
				flat.Verdicts[tr], flat.Rejects[tr], flat.Votes[tr], flat.Missing[tr])
		}
	}
	if tree.Stats.PartialFrames == 0 {
		t.Error("tree root folded no partial frames")
	}
	if want := nw.K() * cfg.Trials; tree.Stats.PartialVotes != want {
		t.Errorf("root folded %d votes via partials, want all %d", tree.Stats.PartialVotes, want)
	}
	if flat.Stats.PartialFrames != 0 || flat.Stats.PartialVotes != 0 {
		t.Errorf("flat star reported partial traffic (%d frames, %d votes)",
			flat.Stats.PartialFrames, flat.Stats.PartialVotes)
	}
}

func TestTreeFaultDropMatchesFlatStar(t *testing.T) {
	// Fault streams are keyed by (node, attempt) alone — independent of
	// the dial target — so a lossy tree run must lose exactly the votes
	// the lossy flat star loses, and the quorum fallback must land on the
	// identical verdicts and per-trial missing counts.
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 4)
	cfg := Config{Trials: 10, BaseSeed: 2}
	plan := &FaultPlan{Seed: 7, Drop: 0.10}
	flat, err := RunPipe(cfg, nw, d, plan)
	if err != nil {
		t.Fatal(err)
	}
	if flat.MissingVotes == 0 {
		t.Fatal("drop plan lost no votes; fault injection inert")
	}
	for _, depth := range []int{1, 2} {
		tree, err := RunTreePipe(cfg, nw, d, plan, 4, depth)
		if err != nil {
			t.Fatal(err)
		}
		if tree.MissingVotes != flat.MissingVotes {
			t.Errorf("depth %d: tree lost %d votes, flat lost %d", depth, tree.MissingVotes, flat.MissingVotes)
		}
		for tr := 0; tr < cfg.Trials; tr++ {
			if tree.Verdicts[tr] != flat.Verdicts[tr] || tree.Missing[tr] != flat.Missing[tr] ||
				tree.Rejects[tr] != flat.Rejects[tr] {
				t.Errorf("depth %d trial %d: tree (%v, %d rejects, %d missing) vs flat (%v, %d, %d)",
					depth, tr, tree.Verdicts[tr], tree.Rejects[tr], tree.Missing[tr],
					flat.Verdicts[tr], flat.Rejects[tr], flat.Missing[tr])
			}
		}
	}
}

func TestTreeMixedBatchedLeavesMatchReference(t *testing.T) {
	// One shard's leaves may batch while another's submit frame-by-frame;
	// the fold is transport-agnostic, so the verdicts must not move.
	nw := thresholdNetwork(t, 64, 8)
	d := dist.NewTwoBump(64, 1.0, 3)
	k := nw.K()
	reg := obs.NewRegistry()
	cfg := Config{Trials: 6, BaseSeed: 11, Obs: reg}

	rootL := NewPipeListener()
	rf := NewReferee(k, nw.Rule(), cfg)
	mid := k / 2
	for i, win := range [][2]int{{0, mid}, {mid, k}} {
		aggL := NewPipeListener()
		agg := &Aggregator{ID: uint32(i), Lo: win[0], Hi: win[1], K: k, Tier: 1,
			Dial: rootL.Dial, Config: cfg}
		go agg.Serve(aggL)
		for n := win[0]; n < win[1]; n++ {
			leafCfg := cfg
			if n%2 == 0 {
				leafCfg.Batch = 3 // batched even leaves, unbatched odd ones
			}
			nc := &NodeClient{ID: n, K: k, Tester: nw.Node(n), Config: leafCfg, Dial: aggL.Dial}
			go nc.Run(d)
		}
	}
	rep, err := rf.Serve(rootL)
	if err != nil {
		t.Fatal(err)
	}
	for tr := 0; tr < cfg.Trials; tr++ {
		wantAccept, wantRejects := nw.RunAt(d, cfg.BaseSeed, uint64(tr), nil, nil)
		if rep.Verdicts[tr] != wantAccept || rep.Rejects[tr] != wantRejects || rep.Votes[tr] != k {
			t.Errorf("trial %d: (%v, %d rejects, %d votes), reference (%v, %d, %d)", tr,
				rep.Verdicts[tr], rep.Rejects[tr], rep.Votes[tr], wantAccept, wantRejects, k)
		}
	}
	// Batch frames terminate at the aggregator tier, not the root; the
	// node-side per-peer sent counters prove the even leaves batched.
	if reg.Counter("cluster.peer.0.sent").Value() == 0 {
		t.Error("no leaf batched; the mixed-transport pin tested nothing")
	}
	if reg.Counter("agg.votes").Value() != int64(k*cfg.Trials) {
		t.Errorf("aggregator tier folded %d votes, want %d", reg.Counter("agg.votes").Value(), k*cfg.Trials)
	}
}

// TestRunTreeReportsLowestNodeError pins runTree's error: when every node
// fails, the flat star and the tree both return the lowest-numbered
// failing node's error, exactly as the node client wrote it, beside the
// report the referee decided from the votes that arrived.
func TestRunTreeReportsLowestNodeError(t *testing.T) {
	nw := andNetwork(t, 1<<10, 16)
	d := dist.NewTwoBump(1<<10, 1.0, 8)
	cfg := Config{Trials: 4, BaseSeed: 21, Deadline: 300 * time.Millisecond}
	plan := &FaultPlan{Seed: 1, Disconnect: 1}
	const want = "cluster: node 0: vote: link disconnected by fault plan"
	for _, c := range []struct {
		name string
		run  func() (*Report, error)
	}{
		{"star", func() (*Report, error) { return RunPipe(cfg, nw, d, plan) }},
		{"tree", func() (*Report, error) { return RunTreePipe(cfg, nw, d, plan, 4, 2) }},
	} {
		rep, err := c.run()
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", c.name, err, want)
		}
		if rep == nil || rep.MissingVotes != nw.K()*cfg.Trials {
			t.Errorf("%s: report %+v, want every vote missing", c.name, rep)
		}
	}
}

func TestTreeDeterministicAcrossRuns(t *testing.T) {
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 4)
	cfg := Config{Trials: 8, BaseSeed: 99}
	first, err := RunTreePipe(cfg, nw, d, nil, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		got, err := RunTreePipe(cfg, nw, d, nil, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		for tr := range got.Verdicts {
			if got.Verdicts[tr] != first.Verdicts[tr] || got.Rejects[tr] != first.Rejects[tr] {
				t.Fatalf("repeat %d trial %d: (%v, %d) vs first (%v, %d)", rep, tr,
					got.Verdicts[tr], got.Rejects[tr], first.Verdicts[tr], first.Rejects[tr])
			}
		}
		// The flush schedule may chunk differently across runs, but the
		// folded totals are fixed by the configuration.
		if got.Stats.PartialVotes != first.Stats.PartialVotes {
			t.Fatalf("repeat %d folded %d partial votes, first %d", rep,
				got.Stats.PartialVotes, first.Stats.PartialVotes)
		}
	}
}

// fakeAggConn dials a referee and speaks the child-aggregator protocol by
// hand: AggHello, then the given frames. It returns the session verdict.
func fakeAggSession(t *testing.T, rf *Referee, l *pipeListener, hello *wire.AggHello, frames []wire.Frame) (*Report, error) {
	t.Helper()
	done := make(chan struct{})
	var rep *Report
	var err error
	go func() {
		defer close(done)
		rep, err = rf.Serve(l)
	}()
	conn, derr := l.Dial()
	if derr != nil {
		t.Fatal(derr)
	}
	defer conn.Close()
	if werr := wire.WriteFrame(conn, hello); werr != nil {
		t.Fatal(werr)
	}
	for _, f := range frames {
		if werr := wire.WriteFrame(conn, f); werr != nil {
			t.Fatal(werr)
		}
	}
	// Drain the verdict broadcast so the referee's bounded best-effort
	// write never has to wait out its deadline on a synchronous pipe.
	go io.Copy(io.Discard, conn)
	<-done
	return rep, err
}

func TestDuplicatedPartialsFoldOnce(t *testing.T) {
	// A retrying child replays its whole flushed log; the per-(trial,
	// child) dedup must fold every entry exactly once.
	nw := thresholdNetwork(t, 64, 10)
	k := nw.K()
	cfg := Config{Trials: 4, BaseSeed: 6, Deadline: 5 * time.Second}
	rf := NewReferee(k, nw.Rule(), cfg)
	entries := make([]wire.PartialEntry, cfg.Trials)
	for tr := range entries {
		entries[tr] = wire.PartialEntry{Trial: uint32(tr), Votes: uint32(k), Rejects: 1}
	}
	pv := &wire.PartialVerdict{Agg: 3, Entries: entries}
	rep, err := fakeAggSession(t, rf, NewPipeListener(),
		&wire.AggHello{Agg: 3, K: uint32(k), Trials: uint32(cfg.Trials), Lo: 0, Hi: uint32(k)},
		[]wire.Frame{pv, pv, &wire.Done{Node: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.DuplicatePartials != cfg.Trials {
		t.Errorf("%d duplicate partial entries counted, want %d", rep.Stats.DuplicatePartials, cfg.Trials)
	}
	for tr := 0; tr < cfg.Trials; tr++ {
		if rep.Votes[tr] != k || rep.Rejects[tr] != 1 {
			t.Errorf("trial %d: %d votes, %d rejects after replay; want %d, 1", tr, rep.Votes[tr], rep.Rejects[tr], k)
		}
	}
	if rep.Stats.DeadlineExpired {
		t.Error("session hit the deadline despite a complete replayed window")
	}
}

func TestPartialExceedingWindowRejected(t *testing.T) {
	// An entry claiming more votes than its sender's window holds would
	// break votes[t] ≤ k; it must count as a bad frame and fold nothing.
	nw := thresholdNetwork(t, 64, 10)
	k := nw.K()
	cfg := Config{Trials: 2, BaseSeed: 6, Deadline: time.Second}
	rf := NewReferee(k, nw.Rule(), cfg)
	oversized := &wire.PartialVerdict{Agg: 1, Entries: []wire.PartialEntry{
		{Trial: 0, Votes: 3, Rejects: 0}, // window [0, 2) holds 2 votes
	}}
	rep, err := fakeAggSession(t, rf, NewPipeListener(),
		&wire.AggHello{Agg: 1, K: uint32(k), Trials: uint32(cfg.Trials), Lo: 0, Hi: 2},
		[]wire.Frame{oversized, &wire.Done{Node: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.BadFrames == 0 {
		t.Error("window-exceeding partial entry not counted as a bad frame")
	}
	if rep.Votes[0] != 0 {
		t.Errorf("%d votes folded from an invalid entry", rep.Votes[0])
	}
}

func TestQuorumFallbackOnSilentSubtree(t *testing.T) {
	// A subtree that disconnects mid-trial leaves its unreported votes
	// missing: the quorum fallback decides from the votes that arrived
	// (missing vote = accept) and accounts for the loss.
	nw := thresholdNetwork(t, 64, 10)
	k := nw.K()
	// The child covers [0, k) but only k-1 leaves reported each trial.
	entries := make([]wire.PartialEntry, 2)
	for tr := range entries {
		entries[tr] = wire.PartialEntry{Trial: uint32(tr), Votes: uint32(k - 1), Rejects: 0}
	}
	cfg := Config{Trials: 2, BaseSeed: 6, Deadline: 5 * time.Second}
	rep, err := fakeAggSession(t, NewReferee(k, nw.Rule(), cfg), NewPipeListener(),
		&wire.AggHello{Agg: 1, K: uint32(k), Trials: 2, Lo: 0, Hi: uint32(k)},
		[]wire.Frame{&wire.PartialVerdict{Agg: 1, Entries: entries}, &wire.Done{Node: 1}})
	if err != nil {
		t.Fatalf("quorum fallback rejected a lossy subtree: %v", err)
	}
	for tr := 0; tr < 2; tr++ {
		if rep.Votes[tr] != k-1 || rep.Missing[tr] != 1 {
			t.Errorf("trial %d: %d votes, %d missing; want %d, 1", tr, rep.Votes[tr], rep.Missing[tr], k-1)
		}
	}
	if rep.QuorumTrials != 2 || rep.MissingVotes != 2 {
		t.Errorf("%d quorum trials, %d missing votes; want 2, 2", rep.QuorumTrials, rep.MissingVotes)
	}
}

func TestAggregatorDrainsPartialOnDeadline(t *testing.T) {
	// Drain-on-disconnect: when a leaf never reports, the aggregator's
	// deadline fires and it must still flush the votes it did fold, so
	// the root's quorum fallback sees exactly what arrived.
	nw := thresholdNetwork(t, 64, 10)
	k := nw.K()
	rootCfg := Config{Trials: 3, BaseSeed: 4, Deadline: 10 * time.Second}
	aggCfg := rootCfg
	aggCfg.Deadline = 300 * time.Millisecond

	rootL := NewPipeListener()
	rf := NewReferee(k, nw.Rule(), rootCfg)
	aggL := NewPipeListener()
	agg := &Aggregator{ID: 0, Lo: 0, Hi: 2, K: k, Tier: 1, Dial: rootL.Dial, Config: aggCfg}
	aggDone := make(chan error, 1)
	go func() { aggDone <- agg.Serve(aggL) }()

	d := dist.NewTwoBump(64, 1.0, 3)
	// Leaf 0 reports through the aggregator; leaf 1 of the window never
	// shows up. The remaining leaves dial the root directly.
	go (&NodeClient{ID: 0, K: k, Tester: nw.Node(0), Config: aggCfg, Dial: aggL.Dial}).Run(d)
	for n := 2; n < k; n++ {
		go (&NodeClient{ID: n, K: k, Tester: nw.Node(n), Config: rootCfg, Dial: rootL.Dial}).Run(d)
	}

	rep, err := rf.Serve(rootL)
	if err != nil {
		t.Fatal(err)
	}
	if aerr := <-aggDone; aerr != nil {
		t.Fatalf("aggregator: %v", aerr)
	}
	for tr := 0; tr < rootCfg.Trials; tr++ {
		if rep.Votes[tr] != k-1 {
			t.Errorf("trial %d: %d votes arrived, want %d with only node 1 silent", tr, rep.Votes[tr], k-1)
		}
	}
	// Every trial misses exactly node 1's vote: it either settles early
	// (the threshold decider decides with one vote outstanding) or falls
	// back to quorum with one recorded missing vote — never both.
	if rep.EarlyTrials+rep.QuorumTrials != rootCfg.Trials || rep.MissingVotes != rep.QuorumTrials {
		t.Errorf("accounting: %d early + %d quorum trials of %d, %d missing votes",
			rep.EarlyTrials, rep.QuorumTrials, rootCfg.Trials, rep.MissingVotes)
	}
	if rep.Stats.PartialVotes != rootCfg.Trials {
		t.Errorf("root folded %d partial votes, want %d (node 0's drained sums)",
			rep.Stats.PartialVotes, rootCfg.Trials)
	}
}

// TestAggregatorReplaysAfterUpstreamFailure drives the aggregator's
// redial-and-replay path: its first upstream connection fails on its
// second write (the first PartialVerdict), so it redials once and replays
// its flushed log, and the root must still decide every trial exactly as
// RunAt with no vote missing.
func TestAggregatorReplaysAfterUpstreamFailure(t *testing.T) {
	_, reg := checkAggregatorRetry(t, Config{Trials: 6, BaseSeed: 8, Retries: 2},
		func(c net.Conn) net.Conn { return &failingConn{Conn: c, failAt: 2} })
	if got := reg.Snapshot().Counters["agg.upstream_retries"]; got != 1 {
		t.Fatalf("agg.upstream_retries = %d, want 1", got)
	}
}

// TestAggregatorRedialsAfterDoneWriteFailure: when only the write of the
// aggregator's Done fails, it redials, replays and sends Done on the new
// link, so the root finalizes because every node is done — not at its
// deadline, kept short so a missing redial fails fast — and decides
// every trial exactly as RunAt.
func TestAggregatorRedialsAfterDoneWriteFailure(t *testing.T) {
	rep, reg := checkAggregatorRetry(t, Config{Trials: 6, BaseSeed: 8, Retries: 2, Deadline: 3 * time.Second},
		func(c net.Conn) net.Conn { return &failingConn{Conn: c, failType: wire.TypeDone} })
	if rep.Stats.DeadlineExpired {
		t.Error("root finalized on its deadline")
	}
	if got := reg.Snapshot().Counters["agg.upstream_retries"]; got != 1 {
		t.Fatalf("agg.upstream_retries = %d, want 1", got)
	}
}

// checkAggregatorRetry runs one aggregator over a 64-node window between
// the leaves and the root, with its first upstream connection wrapped by
// fail, and holds the root's report to RunAt with no vote missing
// (checkDifferential). It returns that report and the aggregator's
// registry.
func checkAggregatorRetry(t *testing.T, cfg Config, fail func(net.Conn) net.Conn) (*Report, *obs.Registry) {
	t.Helper()
	nw := thresholdNetwork(t, 64, 10)
	d := dist.NewTwoBump(64, 1.0, 3)
	reg := obs.NewRegistry()
	var rep *Report
	run := func(cfg Config, nw *zeroround.Network, d dist.Distribution, _ *FaultPlan) (*Report, error) {
		k := nw.K()
		rootL, aggL := NewPipeListener(), NewPipeListener()
		var dials atomic.Int32
		dial := func() (net.Conn, error) {
			c, err := rootL.Dial()
			if err != nil || dials.Add(1) > 1 {
				return c, err
			}
			return fail(c), nil
		}
		aggCfg := cfg
		aggCfg.Obs = reg
		agg := &Aggregator{ID: 0, Lo: 0, Hi: k, K: k, Tier: 1, Dial: dial, Config: aggCfg}
		aggDone := make(chan error, 1)
		go func() { aggDone <- agg.Serve(aggL) }()
		nodeErrs := make(chan error, k)
		for n := 0; n < k; n++ {
			nc := &NodeClient{ID: n, K: k, Tester: nw.Node(n), Config: cfg, Dial: aggL.Dial}
			go func() {
				_, err := nc.Run(d)
				nodeErrs <- err
			}()
		}
		var err error
		rep, err = NewReferee(k, nw.Rule(), cfg).Serve(rootL)
		if aerr := <-aggDone; aerr != nil && err == nil {
			err = aerr
		}
		for n := 0; n < k; n++ {
			if nerr := <-nodeErrs; nerr != nil && err == nil {
				err = nerr
			}
		}
		return rep, err
	}
	checkDifferential(t, nw, d, cfg, run)
	return rep, reg
}

// failingConn fails its failAt-th Write — or, with failType set, its
// first write of a frame of that type — and closes the connection, as a
// link that dies mid-session does.
type failingConn struct {
	net.Conn
	writes, failAt int
	failType       byte
}

func (c *failingConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes == c.failAt || c.failType != 0 && wire.BodyType(p[4:]) == c.failType {
		c.Conn.Close()
		return 0, errors.New("injected upstream write failure")
	}
	return c.Conn.Write(p)
}
