package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 agreed on %d of 100 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must differ from the parent's continued stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and child agreed on %d of 100 draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	c1 := New(7).Split()
	c2 := New(7).Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("split of identical parents diverged at draw %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		n := 1 + i%37
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	const trials = 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += r.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of %d uniforms = %v, want ~0.5", trials, mean)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(17)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from %v by more than 5σ", i, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(29)
	const trials = 100000
	heads := 0
	for i := 0; i < trials; i++ {
		if r.Bool() {
			heads++
		}
	}
	if math.Abs(float64(heads)-trials/2) > 5*math.Sqrt(trials/4) {
		t.Fatalf("Bool: %d heads of %d", heads, trials)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000003)
	}
}

func TestSeedMatchesNew(t *testing.T) {
	var r RNG
	r.Seed(99)
	fresh := New(99)
	for i := 0; i < 100; i++ {
		if r.Uint64() != fresh.Uint64() {
			t.Fatal("Seed diverges from New")
		}
	}
	// Re-seeding in place restarts the stream.
	r.Seed(99)
	if r.Uint64() != New(99).Uint64() {
		t.Fatal("re-Seed did not restart the stream")
	}
}

func TestAtDeterministicAndDistinct(t *testing.T) {
	a, b := At(5, 17), At(5, 17)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("At(5, 17) not deterministic")
		}
	}
	// Adjacent indices and adjacent bases must give distinct streams.
	pairs := [][2]*RNG{
		{At(5, 0), At(5, 1)},
		{At(5, 3), At(6, 3)},
		{At(0, 0), At(0, 1)},
	}
	for pi, p := range pairs {
		same := 0
		for i := 0; i < 100; i++ {
			if p[0].Uint64() == p[1].Uint64() {
				same++
			}
		}
		if same > 0 {
			t.Fatalf("pair %d agreed on %d of 100 draws", pi, same)
		}
	}
}

// TestAtIndicesNameDistinctStreams: for the first 10⁵ indices at several
// bases, every child stream starts with a distinct output, and none starts
// as New(base) does.
func TestAtIndicesNameDistinctStreams(t *testing.T) {
	const n = 100000
	for _, base := range []uint64{0, 1, 42, 0x9e3779b97f4a7c15, ^uint64(0)} {
		root := New(base).Uint64()
		seen := make(map[uint64]uint64, n)
		var r RNG
		for i := uint64(0); i < n; i++ {
			r.SeedAt(base, i)
			first := r.Uint64()
			if first == root {
				t.Fatalf("base %#x: At(base, %d) starts as New(base)", base, i)
			}
			if j, dup := seen[first]; dup {
				t.Fatalf("base %#x: At(base, %d) and At(base, %d) share a first output", base, j, i)
			}
			seen[first] = i
		}
	}
}

func TestSeedAtMatchesAt(t *testing.T) {
	var r RNG
	r.SeedAt(11, 4)
	want := At(11, 4)
	for i := 0; i < 50; i++ {
		if r.Uint64() != want.Uint64() {
			t.Fatal("SeedAt diverges from At")
		}
	}
}

// batchBounds are the bounds the batch draws are pinned at. At 2⁶²+12345
// Lemire's method rejects about a quarter of raw draws, so the rejection
// loop runs; at the smaller bounds it runs with probability about n/2⁶⁴.
var batchBounds = []int{1, 3, 97, 1 << 20, 1<<62 + 12345, math.MaxInt}

// batchLengths are the block lengths the batch draws are pinned at.
var batchLengths = []int{0, 1, 2, 7, 255, 256, 257, 1000}

// rawDraws returns how many Uint64 steps take a generator seeded with seed
// to the state of g, or -1 if none within limit.
func rawDraws(seed uint64, g *RNG, limit int) int {
	c := New(seed)
	for i := 0; i <= limit; i++ {
		if *c == *g {
			return i
		}
		c.Uint64()
	}
	return -1
}

// TestIntnIntoMatchesScalar checks IntnInto leaves dst and the generator
// exactly as len(dst) successive Intn calls would.
func TestIntnIntoMatchesScalar(t *testing.T) {
	for _, n := range batchBounds {
		for _, seed := range []uint64{0, 5, 1 << 40} {
			for _, l := range batchLengths {
				gb, gs := New(seed), New(seed)
				dst := make([]int, l)
				gb.IntnInto(dst, n)
				for i := range dst {
					if want := gs.Intn(n); dst[i] != want {
						t.Fatalf("n=%d seed=%d len=%d: dst[%d]=%d, scalar %d", n, seed, l, i, dst[i], want)
					}
				}
				if *gb != *gs {
					t.Fatalf("n=%d seed=%d len=%d: end state differs from the scalar calls'", n, seed, l)
				}
			}
		}
	}
}

// TestIntnFloat64IntoMatchesScalar checks IntnFloat64Into leaves idx, u and
// the generator exactly as len(idx) successive (Intn, Float64) pairs would.
func TestIntnFloat64IntoMatchesScalar(t *testing.T) {
	for _, n := range batchBounds {
		for _, seed := range []uint64{0, 5, 1 << 40} {
			for _, l := range batchLengths {
				gb, gs := New(seed), New(seed)
				idx := make([]int, l)
				u := make([]float64, l+3) // longer u is allowed; its tail stays untouched
				gb.IntnFloat64Into(idx, u, n)
				for i := range idx {
					wantIdx := gs.Intn(n)
					wantU := gs.Float64()
					if idx[i] != wantIdx || u[i] != wantU {
						t.Fatalf("n=%d seed=%d len=%d: pair %d = (%d, %v), scalar (%d, %v)", n, seed, l, i, idx[i], u[i], wantIdx, wantU)
					}
				}
				for i := l; i < len(u); i++ {
					if u[i] != 0 {
						t.Fatalf("n=%d len=%d: u[%d] written past the block", n, l, i)
					}
				}
				if *gb != *gs {
					t.Fatalf("n=%d seed=%d len=%d: end state differs from the scalar calls'", n, seed, l)
				}
			}
		}
	}
}

// TestBatchDrawsReachRejection checks the 2⁶²+12345 bound really exercises
// the rejection loop: a block consumes more raw draws than it has entries.
func TestBatchDrawsReachRejection(t *testing.T) {
	const n, l = 1<<62 + 12345, 1000
	g := New(3)
	g.IntnInto(make([]int, l), n)
	if d := rawDraws(3, g, 2*l); d <= l {
		t.Fatalf("IntnInto consumed %d raw draws for %d entries; want rejections", d, l)
	}
	g = New(3)
	g.IntnFloat64Into(make([]int, l), make([]float64, l), n)
	if d := rawDraws(3, g, 4*l); d <= 2*l {
		t.Fatalf("IntnFloat64Into consumed %d raw draws for %d pairs; want rejections", d, l)
	}
}

func TestBatchDrawsPanic(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"IntnInto n=0", func() { New(1).IntnInto(make([]int, 1), 0) }},
		{"IntnFloat64Into n=-1", func() { New(1).IntnFloat64Into(make([]int, 1), make([]float64, 1), -1) }},
		{"IntnFloat64Into short u", func() { New(1).IntnFloat64Into(make([]int, 2), make([]float64, 1, 2), 5) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.f()
		}()
	}
}
