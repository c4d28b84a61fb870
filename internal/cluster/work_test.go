package cluster

import (
	"math"
	"runtime"
	"testing"
)

// TestFoldWorkCounts pins what folding a session costs, in counts rather
// than time: the frames and bytes its streams hold, exactly, and the
// allocations of one folded session, NewReferee and Finalize included,
// as an upper bound. Counts are pure functions of the code and the
// inputs, so this gate carries none of BenchmarkBatchFold's timing noise:
// a byte more per vote on the wire, or an allocation per frame in the
// fold, fails it.
func TestFoldWorkCounts(t *testing.T) {
	const k = 64
	for _, c := range []struct {
		name          string
		trials, batch int
		frames        int
		bytes         int64
		allocs        float64 // per folded session, upper bound
	}{
		{"64x8192 in 1024-vote run batches", 8192, 1024, 640, 1_123_520, 93},
		{"64x128 one frame per vote", 128, 0, 8320, 157_952, 93},
	} {
		streams := make([][]byte, k)
		for n := range streams {
			streams[n] = benchPayload(n, k, c.trials, c.batch)
		}
		sf := newStreamFolder()
		session := func() (int, int64, *Report) {
			rf := NewReferee(k, benchRule{thr: k}, Config{Trials: c.trials})
			frames, n, err := sf.fold(rf, streams)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			rep, _, _ := rf.Finalize()
			return frames, n, rep
		}
		frames, n, rep := session()
		if frames != c.frames || n != c.bytes {
			t.Errorf("%s: %d frames, %d bytes; want %d and %d", c.name, frames, n, c.frames, c.bytes)
		}
		// The sink counts every frame after the handshakes.
		if rep.Stats.Votes != k*c.trials || rep.MissingVotes != 0 || rep.Stats.Frames != frames-k {
			t.Errorf("%s: folded %d votes (%d missing) from %d frames; want %d, none and %d",
				c.name, rep.Stats.Votes, rep.MissingVotes, rep.Stats.Frames, k*c.trials, frames-k)
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
