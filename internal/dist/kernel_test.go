package dist

import (
	"testing"
	"testing/quick"

	"github.com/unifdist/unifdist/internal/rng"
)

// oneByOne is a Distribution wrapper that hides any BatchSampler
// implementation, forcing the generic per-sample path.
type oneByOne struct{ Distribution }

// kernelDistributions returns the batch-sampling distributions under test.
// The uniform on 2⁶²+12345 elements makes Lemire's bounded draw reject
// about a quarter of its raw draws, so the kernels' rejection loop runs.
func kernelDistributions(t testing.TB) []Distribution {
	t.Helper()
	h, err := NewHistogram([]float64{1, 2, 3, 4, 0.5, 7}, "h")
	if err != nil {
		t.Fatal(err)
	}
	return []Distribution{
		NewUniform(97),
		NewUniform(1<<62 + 12345),
		NewTwoBump(64, 0.5, 11),
		NewTwoBump(6, 0.9, 3),
		h,
		NewZipf(200, 1.1),
	}
}

// TestSampleIntoMatchesScalarStream checks the batch kernels consume the
// generator exactly as repeated Sample calls do: same seed, same samples,
// and the same next draw after the block. The lengths cover the empty and
// tiny blocks, an odd length, and either side of one and two pair chunks.
func TestSampleIntoMatchesScalarStream(t *testing.T) {
	lengths := []int{0, 1, 2, 97, pairChunk - 1, pairChunk, pairChunk + 1, 2*pairChunk - 1, 2 * pairChunk, 2*pairChunk + 1, 1000}
	for _, d := range kernelDistributions(t) {
		if _, ok := d.(BatchSampler); !ok {
			t.Errorf("%s does not implement BatchSampler", d.Name())
		}
		for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
			for _, s := range lengths {
				gb, gs := rng.New(seed), rng.New(seed)
				batch := make([]int, s)
				SampleInto(d, batch, gb)
				scalar := make([]int, s)
				SampleInto(oneByOne{d}, scalar, gs)
				for i := range batch {
					if batch[i] != scalar[i] {
						t.Fatalf("%s seed %d len %d: batch[%d]=%d but scalar[%d]=%d", d.Name(), seed, s, i, batch[i], i, scalar[i])
					}
				}
				if b, c := gb.Uint64(), gs.Uint64(); b != c {
					t.Fatalf("%s seed %d len %d: next draw after the block %d, scalar %d", d.Name(), seed, s, b, c)
				}
			}
		}
		const s = 1000
		batch := make([]int, s)
		SampleInto(d, batch, rng.New(42))
		if n := SampleN(d, s, rng.New(42)); n[s-1] != batch[s-1] || n[0] != batch[0] {
			t.Errorf("%s: SampleN diverges from SampleInto", d.Name())
		}
	}
}

// TestSampleIntoGenericFallback covers the non-BatchSampler path.
func TestSampleIntoGenericFallback(t *testing.T) {
	d := oneByOne{NewUniform(13)}
	buf := make([]int, 500)
	SampleInto(d, buf, rng.New(3))
	for i, v := range buf {
		if v < 0 || v >= 13 {
			t.Fatalf("sample %d out of range: %d", i, v)
		}
	}
}

// TestSampleIntoRanges checks every kernel stays inside its domain.
func TestSampleIntoRanges(t *testing.T) {
	for _, d := range kernelDistributions(t) {
		buf := make([]int, 2000)
		SampleInto(d, buf, rng.New(7))
		for i, v := range buf {
			if v < 0 || v >= d.N() {
				t.Fatalf("%s: sample %d out of domain: %d", d.Name(), i, v)
			}
		}
	}
}

func BenchmarkSampleScalarUniform(b *testing.B) {
	d := NewUniform(1 << 20)
	buf := make([]int, 1024)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleInto(oneByOne{d}, buf, r)
	}
}

func TestSampleIntoMatchesSampleN(t *testing.T) {
	f := func(seed uint64, sRaw uint8) bool {
		s := int(sRaw%20) + 1
		d := NewUniform(50)
		a := SampleN(d, s, rng.New(seed))
		b := make([]int, s)
		SampleInto(d, b, rng.New(seed))
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
