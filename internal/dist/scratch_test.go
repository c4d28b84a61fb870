package dist

import (
	"testing"

	"github.com/unifdist/unifdist/internal/rng"
)

// TestScratchMatchesReference cross-checks both scratch strategies against
// the package-level functions on random multisets, for domains on both
// sides of the stamp cutoff.
func TestScratchMatchesReference(t *testing.T) {
	r := rng.New(9)
	for _, n := range []int{2, 17, 1 << 10, maxStampDomain, maxStampDomain + 1, 1 << 22} {
		sc := NewCollisionScratch()
		for trial := 0; trial < 40; trial++ {
			s := r.Intn(60) // dense enough for frequent collisions on small n
			samples := make([]int, s)
			for i := range samples {
				samples[i] = r.Intn(n)
			}
			if got, want := sc.HasCollision(n, samples), HasCollision(samples); got != want {
				t.Fatalf("n=%d samples=%v: scratch HasCollision=%v want %v", n, samples, got, want)
			}
			if got, want := sc.CountCollisions(n, samples), CountCollisions(samples); got != want {
				t.Fatalf("n=%d samples=%v: scratch CountCollisions=%d want %d", n, samples, got, want)
			}
		}
	}
}

// TestScratchReuseAcrossDomains checks one scratch can serve interleaved
// calls with different domain sizes (as Network.Run does for heterogeneous
// nodes).
func TestScratchReuseAcrossDomains(t *testing.T) {
	sc := NewCollisionScratch()
	if sc.HasCollision(100, []int{1, 2, 3}) {
		t.Error("false collision")
	}
	if !sc.HasCollision(10, []int{4, 4}) {
		t.Error("missed collision after domain shrink")
	}
	if got := sc.CountCollisions(1000, []int{5, 5, 5}); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	if sc.HasCollision(maxStampDomain+1, []int{0, 1, maxStampDomain}) {
		t.Error("false collision on sort path")
	}
	if got := sc.CountCollisions(maxStampDomain+1, []int{7, 7, 9, 9}); got != 2 {
		t.Errorf("sort-path count = %d, want 2", got)
	}
}

// TestScratchEpochWrap forces the epoch counter to wrap and checks stamps
// from before the wrap cannot produce phantom collisions.
func TestScratchEpochWrap(t *testing.T) {
	sc := NewCollisionScratch()
	sc.HasCollision(8, []int{1, 2, 3}) // stamp 1..3 at epoch 1
	sc.epoch = ^uint16(0) - 1
	sc.HasCollision(8, []int{4, 5}) // epoch 2¹⁶−1
	if sc.HasCollision(8, []int{1, 2, 3, 4}) {
		t.Fatal("stale stamps survived epoch wrap")
	}
	if sc.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", sc.epoch)
	}
}

// TestScratchRealEpochWrap drives one scratch through more than two full
// 16-bit epoch cycles over mixed domains and checks every answer against
// the package-level functions. Every call has at least two samples, so
// each one advances the epoch, and the call sequence repeats with the epoch
// period: call i+65535 replays call i at the same epoch, so a stamp left
// over from the previous cycle would report a phantom collision.
func TestScratchRealEpochWrap(t *testing.T) {
	const period = 1<<16 - 1
	domains := []int{2, 17, 1000, 1 << 16, maxStampDomain}
	sc := NewCollisionScratch()
	samples := make([]int, 0, 24)
	for call := 0; call < 2*period+1000; call++ {
		r := rng.At(5, uint64(call%period))
		n := domains[r.Intn(len(domains))]
		samples = samples[:2+r.Intn(cap(samples)-1)]
		for i := range samples {
			samples[i] = r.Intn(n)
		}
		if call%5 == 4 {
			if got, want := sc.CountCollisions(n, samples), CountCollisions(samples); got != want {
				t.Fatalf("call %d (epoch %d), n=%d samples=%v: CountCollisions=%d want %d", call, sc.epoch, n, samples, got, want)
			}
			continue
		}
		if got, want := sc.HasCollision(n, samples), HasCollision(samples); got != want {
			t.Fatalf("call %d (epoch %d), n=%d samples=%v: HasCollision=%v want %v", call, sc.epoch, n, samples, got, want)
		}
	}
}

// TestScratchNilFallback checks a nil scratch behaves like the package
// functions.
func TestScratchNilFallback(t *testing.T) {
	var sc *CollisionScratch
	if !sc.HasCollision(10, []int{3, 3}) {
		t.Error("nil scratch missed a collision")
	}
	if got := sc.CountCollisions(10, []int{3, 3, 3}); got != 3 {
		t.Errorf("nil scratch count = %d, want 3", got)
	}
}

// TestScratchTrivialSizes covers the short-circuit paths.
func TestScratchTrivialSizes(t *testing.T) {
	sc := NewCollisionScratch()
	if sc.HasCollision(5, nil) || sc.HasCollision(5, []int{2}) {
		t.Error("collision reported for <2 samples")
	}
	if sc.CountCollisions(5, []int{1}) != 0 {
		t.Error("nonzero count for 1 sample")
	}
}

func BenchmarkHasCollisionMap(b *testing.B) {
	// Historical baseline shape: map-based detection allocated per call;
	// kept as a benchmark reference via the package-level function (now
	// sort-based — see BenchmarkHasCollisionScratch for the stamp kernel).
	r := rng.New(1)
	samples := make([]int, 256)
	for i := range samples {
		samples[i] = r.Intn(1 << 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HasCollision(samples)
	}
}

// TestHasRepeatMatchesHasCollision checks HasRepeat against HasCollision on
// random blocks of every length up to 40 over small and large domains, with
// a shared buffer, a fresh one, and no buffer.
func TestHasRepeatMatchesHasCollision(t *testing.T) {
	r := rng.New(19)
	var buf []uint64
	for _, domain := range []int{2, 8, 64, 1 << 20} {
		for length := 0; length <= 40; length++ {
			for rep := 0; rep < 5; rep++ {
				ints := make([]int, length)
				vals := make([]uint64, length)
				for i := range ints {
					ints[i] = r.Intn(domain)
					vals[i] = uint64(ints[i]) << 40 // distinct from the int values
				}
				want := HasCollision(ints)
				var fresh []uint64
				if got := HasRepeat(vals, &buf); got != want {
					t.Fatalf("HasRepeat(%v, shared) = %v, want %v", vals, got, want)
				}
				if got := HasRepeat(vals, &fresh); got != want {
					t.Fatalf("HasRepeat(%v, fresh) = %v, want %v", vals, got, want)
				}
				if got := HasRepeat(vals, nil); got != want {
					t.Fatalf("HasRepeat(%v, nil) = %v, want %v", vals, got, want)
				}
				for i := range ints {
					if vals[i] != uint64(ints[i])<<40 {
						t.Fatal("HasRepeat reordered its input")
					}
				}
			}
		}
	}
}

func TestHasRepeatWarmBufferAllocationFree(t *testing.T) {
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = uint64(i * 7919)
	}
	var buf []uint64
	HasRepeat(vals, &buf)
	if allocs := testing.AllocsPerRun(50, func() { HasRepeat(vals, &buf) }); allocs != 0 {
		t.Fatalf("HasRepeat with a warm buffer made %v allocations, want 0", allocs)
	}
}
