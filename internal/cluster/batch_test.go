package cluster

import (
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/obs/trace"
	"github.com/unifdist/unifdist/internal/wire"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// sansStats strips the transport accounting, which legitimately differs
// between batched and unbatched executions (frame counts, bytes, batch
// tallies), and EarlyTrials, which records at which arriving vote a trial
// was fixed — pure scheduling bookkeeping that varies even between two
// unbatched runs. Everything else — verdicts, rejects, votes, missing,
// quorum accounting — must be identical.
func sansStats(r *Report) Report {
	c := *r
	c.Stats = RefereeStats{}
	c.EarlyTrials = 0
	return c
}

// TestBatchedMatchesReference pins the batched path to the in-process
// indexed reference (RunAt), trial for trial, across batch sizes that
// exercise single-flush, multi-flush and watermark-remainder shapes.
func TestBatchedMatchesReference(t *testing.T) {
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 9)
	for _, batch := range []int{2, 7, 64, 4096} {
		checkDifferential(t, nw, d, Config{Trials: 12, BaseSeed: 77, Batch: batch}, RunPipe)
	}
}

func TestBatchedMatchesUnbatchedExactly(t *testing.T) {
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 4)
	base := Config{Trials: 40, BaseSeed: 31}
	want, err := RunPipe(base, nw, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Trials: 40, BaseSeed: 31, Batch: 16},
		{Trials: 40, BaseSeed: 31, Batch: 256},
	} {
		got, err := RunPipe(cfg, nw, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sansStats(got), sansStats(want)) {
			t.Fatalf("batch=%d: report diverged from unbatched:\n got %+v\nwant %+v",
				cfg.Batch, sansStats(got), sansStats(want))
		}
		if got.Stats.BatchFrames == 0 || got.Stats.BatchedVotes != nw.K()*cfg.Trials {
			t.Fatalf("batch=%d: stats claim %d batch frames / %d batched votes",
				cfg.Batch, got.Stats.BatchFrames, got.Stats.BatchedVotes)
		}
		if got.Stats.Bytes >= want.Stats.Bytes {
			t.Fatalf("batch=%d: batched run used %d wire bytes, unbatched %d",
				cfg.Batch, got.Stats.Bytes, want.Stats.Bytes)
		}
	}
}

func TestBatchedTCPMatchesReference(t *testing.T) {
	nw := thresholdNetwork(t, 64, 40)
	d := dist.NewTwoBump(64, 1.0, 5)
	checkDifferential(t, nw, d, Config{Trials: 8, BaseSeed: 5, Batch: 128}, RunTCP)
}

// TestBatchedFaultPlanMatchesUnbatched is the determinism keystone: a
// seeded drop/dup plan must realize the identical delivered-vote multiset
// whether votes travel one frame each or packed in batches, because both
// paths draw the same per-vote fault stream.
func TestBatchedFaultPlanMatchesUnbatched(t *testing.T) {
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 4)
	plan := &FaultPlan{Seed: 7, Drop: 0.10, Dup: 0.10}
	want, err := RunPipe(Config{Trials: 8, BaseSeed: 2}, nw, d, plan)
	if err != nil {
		t.Fatal(err)
	}
	if want.MissingVotes == 0 || want.Stats.DuplicateVotes == 0 {
		t.Fatal("plan injected nothing; test is inert")
	}
	got, err := RunPipe(Config{Trials: 8, BaseSeed: 2, Batch: 32}, nw, d, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sansStats(got), sansStats(want)) {
		t.Fatalf("batched faulty report diverged:\n got %+v\nwant %+v", sansStats(got), sansStats(want))
	}
	if got.Stats.DuplicateVotes != want.Stats.DuplicateVotes {
		t.Fatalf("batched run deduplicated %d votes, unbatched %d",
			got.Stats.DuplicateVotes, want.Stats.DuplicateVotes)
	}
}

// TestBatchedFoldMatchesPerVoteFold feeds the same votes into two sinks
// with telemetry on, once as VoteBatch frames and once as single Vote
// frames, the reference, on a Referee and on an Aggregator. Every node
// sends the same batches, in order. The first case holds a duplicate
// inside one batch, a duplicate across two batches and a trial past
// Trials. The others, at k = 3 and 200 trials, put runs across the
// 64-bit words of the node-major dedup bitset: one clean, one replayed
// so every bit is already set, one over an earlier single vote and one
// past Trials, and a batch that is not a run. Stats, the votes,
// votes_dup and bad_frames counters, dedup_occupancy, the per-trial
// votes, rejects and verdicts, and the aggregator's pending sequence
// must agree.
func TestBatchedFoldMatchesPerVoteFold(t *testing.T) {
	seq := func(lo, n int) []uint32 {
		trs := make([]uint32, n)
		for i := range trs {
			trs[i] = uint32(lo + i)
		}
		return trs
	}
	for _, c := range []struct {
		name             string
		trials           int
		batches          [][]uint32
		votes, dups, bad int // per node
	}{
		{"duplicates and a trial past Trials", 6, [][]uint32{{0, 1, 1, 2}, {2, 3, 9}, {4, 5}}, 6, 2, 1},
		{"clean run", 200, [][]uint32{seq(0, 130)}, 130, 0, 0},
		{"replayed run", 200, [][]uint32{seq(0, 130), seq(0, 130)}, 130, 130, 0},
		{"run over a single vote", 200, [][]uint32{{140}, seq(130, 40)}, 40, 1, 0},
		{"run past Trials", 200, [][]uint32{seq(150, 80)}, 50, 0, 30},
		{"not a run", 200, [][]uint32{{3, 4, 6, 7, 129, 128, 64, 63}}, 8, 0, 0},
	} {
		const k = 3
		// fold sends every node's batches to s, as VoteBatch frames or one
		// Vote frame per row, then the node's Done.
		fold := func(s *voteSink, batched bool) {
			for node := uint32(s.lo); node < uint32(s.hi); node++ {
				peer, err := s.handshake(&wire.Hello{Node: node, K: uint32(s.k), Trials: uint32(c.trials)})
				if err != nil {
					t.Fatal(err)
				}
				apply := func(f wire.Frame) {
					if _, err := peer.Apply(f, wire.TraceContext{}, 0); err != nil {
						t.Fatal(err)
					}
				}
				for _, trs := range c.batches {
					vb := &wire.VoteBatch{}
					for _, tr := range trs {
						v := wire.BatchVote{Trial: tr, Node: node, Reject: (tr+node)%3 == 0}
						vb.Votes = append(vb.Votes, v)
						if !batched {
							apply(&wire.Vote{Trial: v.Trial, Node: node, Reject: v.Reject})
						}
					}
					if batched {
						apply(vb)
					}
				}
				apply(&wire.Done{Node: node})
			}
		}
		// Each sink reports its stats, its registry and what it decided per
		// trial: the referee's report sans stats, the aggregator's votes,
		// rejects and pending sequence.
		sinks := []struct {
			prefix string // metric namespace
			run    func(batched bool) (RefereeStats, *obs.Registry, any)
		}{
			{"cluster", func(batched bool) (RefereeStats, *obs.Registry, any) {
				reg := obs.NewRegistry()
				rf := NewReferee(k, zeroround.ThresholdRule{T: 2}, Config{Trials: c.trials, Obs: reg})
				fold(&rf.voteSink, batched)
				rep, _, _ := rf.Finalize()
				out := *rep
				out.Stats = RefereeStats{}
				return rep.Stats, reg, out
			}},
			{"agg", func(batched bool) (RefereeStats, *obs.Registry, any) {
				reg := obs.NewRegistry()
				a := newShardSink(k+2, 1, 1+k, Config{Trials: c.trials, Obs: reg})
				fold(&a.voteSink, batched)
				return a.stats, reg, [][]int{a.votes, a.rejects, a.pending}
			}},
		}
		for _, sk := range sinks {
			bstats, breg, btrials := sk.run(true)
			sstats, sreg, strials := sk.run(false)
			name := c.name + "/" + sk.prefix
			if sstats.Votes != k*c.votes || sstats.DuplicateVotes != k*c.dups || sstats.BadFrames != k*c.bad {
				t.Fatalf("%s: per-vote stats %+v, want %d votes, %d duplicates, %d bad",
					name, sstats, k*c.votes, k*c.dups, k*c.bad)
			}
			if bstats.Votes != sstats.Votes || bstats.DuplicateVotes != sstats.DuplicateVotes ||
				bstats.BadFrames != sstats.BadFrames {
				t.Errorf("%s: batched stats %+v, per-vote %+v", name, bstats, sstats)
			}
			if !reflect.DeepEqual(btrials, strials) {
				t.Errorf("%s: batched trials %v, per-vote %v", name, btrials, strials)
			}
			for m, want := range map[string]int{"votes": c.votes, "votes_dup": c.dups, "bad_frames": c.bad} {
				m = sk.prefix + "." + m
				if b, s := breg.Counter(m).Value(), sreg.Counter(m).Value(); b != s || s != int64(k*want) {
					t.Errorf("%s: %s batched %d, per-vote %d, want %d", name, m, b, s, k*want)
				}
			}
			m := sk.prefix + ".dedup_occupancy"
			want := float64(k*c.votes) / float64(k*c.trials)
			if b, s := breg.Gauge(m).Value(), sreg.Gauge(m).Value(); b != s || b != want {
				t.Errorf("%s: %s batched %v, per-vote %v, want %v", name, m, b, s, want)
			}
		}
	}
}

// TestRunFoldMatchesRowFold pins the run fold to the vote-by-vote fold.
// Each node sends the same runs to two sinks with telemetry on, on a
// Referee and on an Aggregator: once decoded from their frames, so that
// every run arrives as a wire.VoteRun and folds from its bitset, and once
// as VoteBatch rows, which fold vote by vote. At k = 3 and 200 trials the
// runs cross the 64-bit words of the dedup bitset: one clean, one
// replayed so every bit is already set, one over an earlier single vote,
// one past Trials and one ending at trial MaxUint32. Stats, every metric,
// the per-trial sums and the aggregator's pending sequence must agree.
func TestRunFoldMatchesRowFold(t *testing.T) {
	const k, trials = 3, 200
	seq := func(lo uint32, n int) []uint32 {
		trs := make([]uint32, n)
		for i := range trs {
			trs[i] = lo + uint32(i)
		}
		return trs
	}
	for _, c := range []struct {
		name string
		runs [][]uint32
	}{
		{"clean run", [][]uint32{seq(0, 130)}},
		{"replayed run", [][]uint32{seq(0, 130), seq(0, 130)}},
		{"run over a single vote", [][]uint32{{140}, seq(130, 40)}},
		{"run past Trials", [][]uint32{seq(150, 80)}},
		{"run to MaxUint32", [][]uint32{seq(math.MaxUint32-9, 10)}},
	} {
		// fold sends every node's runs to s, decoded or as rows, then the
		// node's Done.
		fold := func(s *voteSink, decoded bool) {
			var sc wire.DecodeScratch
			for node := uint32(s.lo); node < uint32(s.hi); node++ {
				peer, err := s.handshake(&wire.Hello{Node: node, K: uint32(s.k), Trials: trials})
				if err != nil {
					t.Fatal(err)
				}
				for _, trs := range c.runs {
					vb := &wire.VoteBatch{}
					for _, tr := range trs {
						vb.Votes = append(vb.Votes, wire.BatchVote{Trial: tr, Node: node, Reject: (tr+node)%3 == 0})
					}
					var f wire.Frame = vb
					if decoded {
						f, _, _, err = wire.DecodeBodySession(wire.AppendSession(nil, vb, 0, wire.TraceContext{})[4:], &sc)
						if _, ok := f.(*wire.VoteRun); !ok || err != nil {
							t.Fatalf("%s: run decoded as %T, %v", c.name, f, err)
						}
					}
					if _, err := peer.Apply(f, wire.TraceContext{}, 0); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := peer.Apply(&wire.Done{Node: node}, wire.TraceContext{}, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Each sink reports its stats, its metrics and its per-trial state.
		for prefix, run := range map[string]func(decoded bool) (RefereeStats, obs.Snapshot, any){
			"cluster": func(decoded bool) (RefereeStats, obs.Snapshot, any) {
				reg := obs.NewRegistry()
				rf := NewReferee(k, zeroround.ThresholdRule{T: 2}, Config{Trials: trials, Obs: reg})
				fold(&rf.voteSink, decoded)
				rep, _, _ := rf.Finalize()
				return rep.Stats, reg.Snapshot(), [][]int{rep.Votes, rep.Rejects, rep.Missing}
			},
			"agg": func(decoded bool) (RefereeStats, obs.Snapshot, any) {
				reg := obs.NewRegistry()
				a := newShardSink(k+2, 1, 1+k, Config{Trials: trials, Obs: reg})
				fold(&a.voteSink, decoded)
				return a.stats, reg.Snapshot(), [][]int{a.votes, a.rejects, a.pending}
			},
		} {
			rstats, rmetrics, rtrials := run(true)
			vstats, vmetrics, vtrials := run(false)
			name := c.name + "/" + prefix
			if rstats != vstats {
				t.Errorf("%s: run fold stats %+v, vote-by-vote %+v", name, rstats, vstats)
			}
			if !reflect.DeepEqual(rmetrics, vmetrics) {
				t.Errorf("%s: run fold metrics %+v, vote-by-vote %+v", name, rmetrics, vmetrics)
			}
			if !reflect.DeepEqual(rtrials, vtrials) {
				t.Errorf("%s: run fold trials %v, vote-by-vote %v", name, rtrials, vtrials)
			}
		}
	}
}

// TestBatchedDisconnectDrainsPendingVotes checks the graceful-drain
// contract: when the fault plan kills a batched link, votes batched
// before the disconnect still reach the referee — matching the per-frame
// path, where they were already on the wire — so retries converge on the
// reference verdicts.
func TestBatchedDisconnectDrainsPendingVotes(t *testing.T) {
	nw := thresholdNetwork(t, 64, 30)
	d := dist.NewTwoBump(64, 1.0, 8)
	plan := &FaultPlan{Seed: 3, Disconnect: 0.02}
	cfg := Config{Trials: 6, BaseSeed: 4, Retries: 8, Backoff: time.Millisecond, Batch: 64}
	rep, err := RunPipe(cfg, nw, d, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Connections <= nw.K() {
		t.Fatalf("%d connections for k=%d: no disconnect was injected", rep.Stats.Connections, nw.K())
	}
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

// TestMixedBatchedAndPerVotePeers runs one referee session where half the
// nodes send VoteBatch frames and half one frame per vote: the referee
// must serve both and land on the reference verdicts.
func TestMixedBatchedAndPerVotePeers(t *testing.T) {
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 9)
	k := nw.K()
	cfg := Config{Trials: 8, BaseSeed: 13}
	batched := cfg
	batched.Batch = 32

	l := NewPipeListener()
	rf := NewReferee(k, nw.Rule(), cfg)
	done := make(chan struct{})
	var rep *Report
	var serveErr error
	go func() {
		defer close(done)
		rep, serveErr = rf.Serve(l)
	}()
	errCh := make(chan error, k)
	for i := 0; i < k; i++ {
		nodeCfg := cfg
		if i%2 == 0 {
			nodeCfg = batched
		}
		nc := &NodeClient{ID: i, K: k, Tester: nw.Node(i), Config: nodeCfg, Dial: l.Dial}
		go func() {
			_, err := nc.Run(d)
			errCh <- err
		}()
	}
	for i := 0; i < k; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	if rep.Stats.BatchFrames == 0 || rep.Stats.BatchedVotes != (k+1)/2*cfg.Trials {
		t.Fatalf("mixed session recorded %d batch frames / %d batched votes",
			rep.Stats.BatchFrames, rep.Stats.BatchedVotes)
	}
	if rep.Stats.Votes != k*cfg.Trials {
		t.Fatalf("mixed session recorded %d votes, want %d", rep.Stats.Votes, k*cfg.Trials)
	}
	for tr := 0; tr < cfg.Trials; tr++ {
		wantAccept, wantRejects := nw.RunAt(d, cfg.BaseSeed, uint64(tr), nil, nil)
		if rep.Verdicts[tr] != wantAccept || rep.Rejects[tr] != wantRejects {
			t.Fatalf("trial %d: (%v, %d), reference (%v, %d)", tr,
				rep.Verdicts[tr], rep.Rejects[tr], wantAccept, wantRejects)
		}
	}
}

// TestBatchFillCountsEachFrameOnce pins cluster.batch_fill to the
// referee's own accounting: the sink observes each VoteBatch frame once,
// on arrival, with the votes it carried, and no other writer shares the
// name.
func TestBatchFillCountsEachFrameOnce(t *testing.T) {
	nw := thresholdNetwork(t, 64, 8)
	reg := obs.NewRegistry()
	rep, err := RunPipe(Config{Trials: 32, BaseSeed: 1, Batch: 16, Obs: reg}, nw, dist.NewUniform(64), nil)
	if err != nil {
		t.Fatal(err)
	}
	fill := reg.Histogram("cluster.batch_fill", nil).Snapshot()
	if rep.Stats.BatchFrames == 0 || fill.Count != int64(rep.Stats.BatchFrames) || fill.Sum != int64(rep.Stats.BatchedVotes) {
		t.Fatalf("cluster.batch_fill count %d sum %d; the referee received %d batch frames carrying %d votes",
			fill.Count, fill.Sum, rep.Stats.BatchFrames, rep.Stats.BatchedVotes)
	}
}

// TestBatcherRespectsFrameCaps drives the batcher with adversarially wide
// votes at the largest batch size and checks that the count cap alone
// keeps every emitted frame within the wire cap.
func TestBatcherRespectsFrameCaps(t *testing.T) {
	var w frameRecorder
	cfg := Config{Trials: 1, Batch: wire.MaxBatchVotes}
	bt := newBatcher(&frameWriter{w: &w}, cfg, trace.Context{})
	// Wide deltas defeat the delta encoding: every column entry costs ~5
	// bytes, the worst case the frame cap is sized for.
	for i := 0; i < 20000; i++ {
		v := wire.BatchVote{Trial: uint32(i * 2654435761), Node: uint32(i * 40503), Reject: i%3 == 0}
		if err := bt.add(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.flush(); err != nil {
		t.Fatal(err)
	}
	// 20000 votes are four full batches of 4096 and a remainder.
	if len(w.frames) != 5 {
		t.Fatalf("%d writes, want 5", len(w.frames))
	}
	for i, f := range w.frames {
		if len(f)-4 > wire.FrameCap(wire.TypeVoteBatch) {
			t.Fatalf("frame %d is %d bytes past its prefix, cap %d", i, len(f)-4, wire.FrameCap(wire.TypeVoteBatch))
		}
	}
}

// frameRecorder keeps a copy of every Write, one frame each.
type frameRecorder struct{ frames [][]byte }

func (r *frameRecorder) Write(p []byte) (int, error) {
	r.frames = append(r.frames, append([]byte(nil), p...))
	return len(p), nil
}

// TestBatcherWritesRuns records what the nodes of a clean batched session
// write and checks that every VoteBatch frame is in run form — one node's
// votes on consecutive trials, which the codec decodes as a VoteRun — so
// the run path serves the real traffic. The codec is bijective, so rows
// in run shape mean run-form bytes.
func TestBatcherWritesRuns(t *testing.T) {
	nw := thresholdNetwork(t, 64, 12)
	d := dist.NewTwoBump(64, 1.0, 9)
	cfg := Config{Trials: 100, BaseSeed: 4, Batch: 16}
	k := nw.K()
	l := NewPipeListener()
	recs := make([]frameRecorder, k)
	errs := make(chan error, k)
	for n := 0; n < k; n++ {
		dial := func() (net.Conn, error) {
			c, err := l.Dial()
			return &recordingConn{Conn: c, rec: &recs[n]}, err
		}
		nc := &NodeClient{ID: n, K: k, Tester: nw.Node(n), Config: cfg, Dial: dial}
		go func() {
			_, err := nc.Run(d)
			errs <- err
		}()
	}
	rep, err := NewReferee(k, nw.Rule(), cfg).Serve(l)
	for n := 0; n < k; n++ {
		if nerr := <-errs; err == nil {
			err = nerr
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissingVotes != 0 || rep.Stats.BatchedVotes != k*cfg.Trials {
		t.Fatalf("%d votes missing, %d batched; want 0 and %d", rep.MissingVotes, rep.Stats.BatchedVotes, k*cfg.Trials)
	}
	for n := range recs {
		batches := 0
		for _, raw := range recs[n].frames {
			f, _, _, err := wire.DecodeBodySession(raw[4:], nil)
			if err != nil {
				t.Fatalf("node %d wrote an undecodable frame: %v", n, err)
			}
			var votes []wire.BatchVote
			switch b := f.(type) {
			case *wire.VoteRun:
				votes = b.AppendVotes(nil)
			case *wire.VoteBatch:
				votes = b.Votes
			default:
				continue
			}
			batches++
			for i, v := range votes {
				if v.Node != uint32(n) || v.Trial != votes[0].Trial+uint32(i) {
					t.Fatalf("node %d batch %d is not a run: vote %d is (trial %d, node %d) after trial %d",
						n, batches, i, v.Trial, v.Node, votes[0].Trial)
				}
			}
			if _, ok := f.(*wire.VoteRun); !ok {
				t.Fatalf("node %d batch %d decoded as %T, off the run path", n, batches, f)
			}
		}
		if want := (cfg.Trials + cfg.Batch - 1) / cfg.Batch; batches != want {
			t.Fatalf("node %d wrote %d batches, want %d", n, batches, want)
		}
	}
}

// recordingConn copies every write into rec before sending it.
type recordingConn struct {
	net.Conn
	rec *frameRecorder
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.rec.Write(p)
	return c.Conn.Write(p)
}
