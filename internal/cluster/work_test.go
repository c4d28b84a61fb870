package cluster

import (
	"math"
	"runtime"
	"testing"

	"github.com/unifdist/unifdist/internal/dist"
)

// TestFoldWorkCounts pins what folding a session costs, in counts rather
// than time: the frames and bytes its streams hold, exactly, and the
// allocations of one folded session, building and finishing the sink
// included, as an upper bound. Counts are pure functions of the code and
// the inputs, so this gate carries none of BenchmarkBatchFold's timing
// noise: a byte more per vote on the wire, or an allocation per frame in
// the fold, fails it. A Referee folds every node; the shard case folds
// nodes 0–31 into an Aggregator, whose every trial must reach pending
// exactly once, in order.
func TestFoldWorkCounts(t *testing.T) {
	const k = 64
	for _, c := range []struct {
		name          string
		trials, batch int
		shard         bool
		frames        int
		bytes         int64
		allocs        float64 // per folded session, upper bound
	}{
		{"64x8192 in 1024-vote run batches", 8192, 1024, false, 640, 1_123_520, 93},
		{"64x128 one frame per vote", 128, 0, false, 8320, 157_952, 93},
		{"shard 0-31 of 64x8192 in 1024-vote run batches", 8192, 1024, true, 320, 561_760, 73},
	} {
		nodes := k
		if c.shard {
			nodes = k / 2
		}
		streams := make([][]byte, nodes)
		for n := range streams {
			streams[n] = benchPayload(n, k, c.trials, c.batch)
		}
		sf := newStreamFolder()
		session := func() (int, int64, RefereeStats) {
			if c.shard {
				a := newShardSink(k, 0, nodes, Config{Trials: c.trials})
				frames, n, err := sf.fold(&a.voteSink, streams)
				if err == nil {
					err = pendingInOrder(a)
				}
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				return frames, n, a.stats
			}
			rf := NewReferee(k, benchRule{thr: k}, Config{Trials: c.trials})
			frames, n, err := sf.fold(&rf.voteSink, streams)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			rep, _, _ := rf.Finalize()
			if rep.MissingVotes != 0 {
				t.Errorf("%s: %d votes missing", c.name, rep.MissingVotes)
			}
			return frames, n, rep.Stats
		}
		frames, n, stats := session()
		if frames != c.frames || n != c.bytes {
			t.Errorf("%s: %d frames, %d bytes; want %d and %d", c.name, frames, n, c.frames, c.bytes)
		}
		// The sink counts every frame after the handshakes.
		if stats.Votes != nodes*c.trials || stats.Frames != frames-nodes {
			t.Errorf("%s: folded %d votes from %d frames; want %d and %d",
				c.name, stats.Votes, stats.Frames, nodes*c.trials, frames-nodes)
		}
		// The count is process-wide, so work left by earlier tests, such as
		// finalizers run in collections this fold triggers, can add to it.
		// Collect first, and keep the least of five windows.
		runtime.GC()
		allocs := math.Inf(1)
		for w := 0; w < 5; w++ {
			allocs = math.Min(allocs, testing.AllocsPerRun(4, func() { session() }))
		}
		if allocs > c.allocs {
			t.Errorf("%s: %v allocations per folded session, want ≤ %v", c.name, allocs, c.allocs)
		}
	}
}

// TestPerFrameSessionAllocs pins that a node sending one Vote frame per
// vote allocates nothing per vote: a per-frame RunPipe session of a
// k = 8 threshold network allocates about as much at 128 trials as at
// 64, where one allocation per vote would add k × 64.
func TestPerFrameSessionAllocs(t *testing.T) {
	const k = 8
	nw := thresholdNetwork(t, 64, k)
	d := dist.NewUniform(64)
	allocs := func(trials int) float64 {
		cfg := Config{Trials: trials, BaseSeed: 3}
		runtime.GC()
		least := math.Inf(1)
		for w := 0; w < 3; w++ {
			least = math.Min(least, testing.AllocsPerRun(2, func() {
				if _, err := RunPipe(cfg, nw, d, nil); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	at64, at128 := allocs(64), allocs(128)
	t.Logf("allocations per session: %v at 64 trials, %v at 128", at64, at128)
	if growth := at128 - at64; growth > k*64/8 {
		t.Errorf("64 more trials cost %v more allocations (%v at 64 trials, %v at 128), want ≤ %d",
			growth, at64, at128, k*64/8)
	}
}
