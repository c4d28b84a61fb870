package dist

import (
	"math"
	"testing"

	"github.com/unifdist/unifdist/internal/rng"
)

// FuzzCollisionScratch cross-checks every CollisionScratch strategy
// against a reference map implementation: for random sample vectors, the
// epoch-stamp path (small domains), the sort-buffer path (domains above
// maxStampDomain), and the package-level entry points must all agree on
// collision presence, colliding-pair counts, and distinct counts. The
// scratch is reused across rounds inside one fuzz invocation, so epoch
// reuse and buffer growth are exercised too.
func FuzzCollisionScratch(f *testing.F) {
	f.Add(uint64(1), uint16(8), uint8(16), uint8(3))
	f.Add(uint64(42), uint16(1), uint8(1), uint8(1))
	f.Add(uint64(7), uint16(1000), uint8(255), uint8(5))
	f.Add(uint64(0), uint16(2), uint8(64), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, domainRaw uint16, countRaw uint8, rounds uint8) {
		n := int(domainRaw)%4096 + 1
		count := int(countRaw)
		sc := NewCollisionScratch()
		r := rng.New(seed)
		for round := 0; round < int(rounds)%8+1; round++ {
			samples := make([]int, count)
			for i := range samples {
				samples[i] = r.Intn(n)
			}
			// Reference: count colliding pairs Σ C(c_i, 2) with a map.
			freq := map[int]int{}
			for _, s := range samples {
				freq[s]++
			}
			wantPairs := 0
			for _, c := range freq {
				wantPairs += c * (c - 1) / 2
			}
			wantHas := wantPairs > 0
			wantDistinct := len(freq)

			// Small domain: stamp strategy.
			if got := sc.HasCollision(n, samples); got != wantHas {
				t.Fatalf("stamp HasCollision(n=%d, %v) = %v, want %v", n, samples, got, wantHas)
			}
			if got := sc.CountCollisions(n, samples); got != wantPairs {
				t.Fatalf("stamp CountCollisions(n=%d, %v) = %d, want %d", n, samples, got, wantPairs)
			}
			if got := sc.CountDistinct(n, samples); got != wantDistinct {
				t.Fatalf("stamp CountDistinct(n=%d, %v) = %d, want %d", n, samples, got, wantDistinct)
			}

			// Large domain: the same samples are valid in a domain above the
			// stamp bound, forcing the sort-buffer strategy.
			big := maxStampDomain + n
			if got := sc.HasCollision(big, samples); got != wantHas {
				t.Fatalf("sort HasCollision(n=%d, %v) = %v, want %v", big, samples, got, wantHas)
			}
			if got := sc.CountCollisions(big, samples); got != wantPairs {
				t.Fatalf("sort CountCollisions(n=%d, %v) = %d, want %d", big, samples, got, wantPairs)
			}
			if got := sc.CountDistinct(big, samples); got != wantDistinct {
				t.Fatalf("sort CountDistinct(n=%d, %v) = %d, want %d", big, samples, got, wantDistinct)
			}

			// Package-level entry points and the nil scratch must agree too.
			if got := HasCollision(samples); got != wantHas {
				t.Fatalf("HasCollision(%v) = %v, want %v", samples, got, wantHas)
			}
			if got := CountCollisions(samples); got != wantPairs {
				t.Fatalf("CountCollisions(%v) = %d, want %d", samples, got, wantPairs)
			}
			var nilSc *CollisionScratch
			if got := nilSc.CountCollisions(n, samples); got != wantPairs {
				t.Fatalf("nil scratch CountCollisions(%v) = %d, want %d", samples, got, wantPairs)
			}
		}
	})
}

// FuzzSampleIntoMatchesScalar checks every batch kernel against its
// scalar Sample reference: for a seed, a domain size, a block length and a
// distribution kind, the batch block must equal the scalar one and leave
// the generator in the same state.
func FuzzSampleIntoMatchesScalar(f *testing.F) {
	f.Add(uint64(1), uint64(97), uint16(1000), uint8(0))
	f.Add(uint64(2), uint64(1<<62+12345), uint16(513), uint8(0))
	f.Add(uint64(3), uint64(64), uint16(256), uint8(1))
	f.Add(uint64(4), uint64(200), uint16(257), uint8(2))
	f.Add(uint64(5), uint64(1), uint16(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed, domain uint64, length uint16, kind uint8) {
		var d Distribution
		switch small := int(domain%4096) + 1; kind % 4 {
		case 0: // any domain an int holds, so Lemire's rejection loop runs
			d = NewUniform(int(domain%math.MaxInt) + 1)
		case 1:
			d = NewTwoBump(2*small, float64(seed%1000+1)/1000, seed)
		case 2:
			d = NewZipf(small, 1.1)
		default:
			d = NewPointMassMixture(small, int(seed%uint64(small)), 0.3)
		}
		s := int(length % 2048)
		gb, gs := rng.New(seed), rng.New(seed)
		batch := make([]int, s)
		SampleInto(d, batch, gb)
		for i := range batch {
			if want := d.Sample(gs); batch[i] != want {
				t.Fatalf("%s seed %d len %d: batch[%d]=%d, scalar %d", d.Name(), seed, s, i, batch[i], want)
			}
		}
		if *gb != *gs {
			t.Fatalf("%s seed %d len %d: end state differs from the scalar stream's", d.Name(), seed, s)
		}
	})
}

// FuzzNewHistogram ensures arbitrary mass vectors either error out or
// produce a normalized distribution whose sampler stays in range.
func FuzzNewHistogram(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 64 {
			return
		}
		p := make([]float64, len(raw))
		for i, v := range raw {
			p[i] = float64(v)
		}
		h, err := NewHistogram(p, "fuzz")
		if err != nil {
			return
		}
		total := 0.0
		for i := 0; i < h.N(); i++ {
			pr := h.Prob(i)
			if pr < 0 || pr > 1 {
				t.Fatalf("Prob(%d) = %v", i, pr)
			}
			total += pr
		}
		if total < 0.999 || total > 1.001 {
			t.Fatalf("mass %v", total)
		}
		r := rng.New(1)
		for i := 0; i < 50; i++ {
			if v := h.Sample(r); v < 0 || v >= h.N() {
				t.Fatalf("sample %d out of range", v)
			}
		}
	})
}
