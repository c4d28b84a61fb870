package smp

import (
	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/ecc"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/trialpool"
)

// This file holds the trial estimators for the SMP protocols, one per
// protocol. The experiment cells (E9, E13, E14) run each protocol tens of
// thousands of times on a fixed input pair, so the estimators hoist
// everything that does not depend on the trial's coins out of the loop —
// above all the ECC encoding, which dominates a single protocol run — and
// fan the trials across the shared trial pool (internal/trialpool).
//
// Every estimator is bit-for-bit deterministic in the caller's RNG at any
// worker count: it draws one base from r, and trial i reseeds its worker's
// generator as rng.SeedAt(base, i).

// countTrials runs trials on the shared pool and returns how many reported
// true. newWorker builds one per-worker trial closure owning whatever
// scratch it needs; the closure receives a generator already reseeded for
// its trial from base.
func countTrials(trials, workers int, base uint64, newWorker func() func(*rng.RNG) (bool, error)) (int, error) {
	return trialpool.Count(trials, workers, func() func(int) (bool, error) {
		gen, fn := rng.New(0), newWorker()
		return func(i int) (bool, error) {
			gen.SeedAt(base, uint64(i))
			return fn(gen)
		}
	})
}

// encodePair encodes both players' inputs through one shared symbol
// scratch (ecc.EncodeInto): the estimators encode exactly twice per call,
// however many trials follow.
func encodePair(code *ecc.Code, x, y []byte) (cx, cy []byte, err error) {
	sc := code.NewEncodeScratch()
	if cx, err = code.EncodeInto(x, nil, sc); err != nil {
		return nil, nil, err
	}
	if cy, err = code.EncodeInto(y, nil, sc); err != nil {
		return nil, nil, err
	}
	return cx, cy, nil
}

// EstimateRejectProb measures the rejection probability on a fixed input
// pair over trials protocol runs, with the codewords computed once and the
// trials fanned across workers (0 means GOMAXPROCS).
func (e *Equality) EstimateRejectProb(x, y []byte, trials, workers int, r *rng.RNG) (float64, error) {
	if trials <= 0 {
		return 0, nil
	}
	cx, cy, err := encodePair(e.code, x, y)
	if err != nil {
		return 0, err
	}
	base := r.Uint64()
	rejects, err := countTrials(trials, workers, base, func() func(*rng.RNG) (bool, error) {
		return func(gen *rng.RNG) (bool, error) {
			return !e.runPrepared(cx, cy, gen), nil
		}
	})
	if err != nil {
		return 0, err
	}
	return float64(rejects) / float64(trials), nil
}

// runPrepared is one chunk-protocol run on pre-encoded inputs. It draws the
// same coins in the same order as Run (Alice's row and column, then Bob's)
// and decides identically, but only ever reads the single torus cell where
// the two chunks can intersect — the chunks themselves are never
// materialized.
func (e *Equality) runPrepared(cx, cy []byte, r *rng.RNG) bool {
	aRow, aCol := r.Intn(e.grid), r.Intn(e.grid)
	bRow, bCol := r.Intn(e.grid), r.Intn(e.grid)
	di := (bRow - aRow + e.grid) % e.grid // index into Alice's chunk
	dj := (aCol - bCol + e.grid) % e.grid // index into Bob's chunk
	if di >= e.t || dj >= e.t {
		return true // no intersection
	}
	// The shared cell is (bRow, aCol): Alice's chunk reaches it walking down
	// column aCol, Bob's walking across row bRow.
	return e.bitAt(cx, bRow, aCol) == e.bitAt(cy, bRow, aCol)
}

// EstimateRejectProb measures the rejection probability on a fixed input
// pair over trials protocol runs, with the codewords computed once and the
// trials fanned across workers (0 means GOMAXPROCS).
func (s *SingleCellEquality) EstimateRejectProb(x, y []byte, trials, workers int, r *rng.RNG) (float64, error) {
	if trials <= 0 {
		return 0, nil
	}
	cx, cy, err := encodePair(s.code, x, y)
	if err != nil {
		return 0, err
	}
	m := s.code.CodeBits()
	base := r.Uint64()
	type probe struct {
		idx int
		bit bool
	}
	rejects, err := countTrials(trials, workers, base, func() func(*rng.RNG) (bool, error) {
		alice := make([]probe, s.reps)
		bob := make([]probe, s.reps)
		return func(gen *rng.RNG) (bool, error) {
			for i := 0; i < s.reps; i++ {
				ai := gen.Intn(m)
				bi := gen.Intn(m)
				alice[i] = probe{idx: ai, bit: ecc.Bit(cx, ai)}
				bob[i] = probe{idx: bi, bit: ecc.Bit(cy, bi)}
			}
			for _, a := range alice {
				for _, b := range bob {
					if a.idx == b.idx && a.bit != b.bit {
						return true, nil
					}
				}
			}
			return false, nil
		}
	})
	if err != nil {
		return 0, err
	}
	return float64(rejects) / float64(trials), nil
}

// EstimateAcceptProb measures the acceptance probability on a fixed
// input pair over trials Run executions on the shared trial pool, with the
// codewords and the tester hoisted out of the trial loop: inputs are
// encoded once per call and each worker builds the tester once and reuses
// one sample buffer and one collision scratch.
func (e *EqualityFromTester) EstimateAcceptProb(x, y []byte, trials, workers int, r *rng.RNG) (float64, error) {
	if trials <= 0 {
		return 0, nil
	}
	cx, cy, err := encodePair(e.code, x, y)
	if err != nil {
		return 0, err
	}
	base := r.Uint64()
	accepts, err := countTrials(trials, workers, base, func() func(*rng.RNG) (bool, error) {
		t, initErr := e.build(e.Domain())
		if initErr != nil {
			return func(*rng.RNG) (bool, error) { return false, initErr }
		}
		samples := make([]int, t.SampleSize())
		sc := dist.NewCollisionScratch()
		return func(gen *rng.RNG) (bool, error) {
			e.fillStream(samples, cx, cy, gen)
			return t.Test(samples, sc), nil
		}
	})
	if err != nil {
		return 0, err
	}
	return float64(accepts) / float64(trials), nil
}
