// Package trialpool is the one worker pool every Monte-Carlo estimator in
// the library runs its trials on: the 0-round network's EstimateErrorAt,
// the CONGEST estimator and the SMP estimators. The experiment harness
// runs its sweep rows on it too (experiment.RunContext.RunRows).
//
// A trial is named by its index alone. Each estimator derives the trial's
// randomness from (base, index) — rng.SeedAt or zeroround.VoteStream — so
// which worker runs a trial, and when, cannot change what it computes.
// Workers claim chunks of indices from one atomic counter (fast workers
// take more chunks) and fold their hits into per-worker sums published
// once; the total is a commutative sum. A count is therefore bit-for-bit
// identical at any worker count and any GOMAXPROCS.
package trialpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Count runs trials 0…n−1 across workers goroutines (0 means GOMAXPROCS,
// and never more than n) and returns how many reported true. newWorker
// builds one trial function per worker, owning whatever generator and
// scratch it needs; the function receives the trial index.
//
// On error Count returns 0 and the error of the lowest failing trial index:
// the one a sequential loop over the indices would report first. A worker
// stops at its first error, but every chunk below one it claimed was
// claimed before it and runs in index order, so no lower failure is
// skipped.
func Count(n, workers int, newWorker func() func(trial int) (bool, error)) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	workers = workerCount(workers, n)
	if workers == 1 {
		count, _, err := runRange(0, n, newWorker())
		if err != nil {
			return 0, err
		}
		return count, nil
	}
	chunk := chunkSize(n, workers)
	var (
		next, total atomic.Int64
		wg          sync.WaitGroup
		mu          sync.Mutex
		firstIdx    = n
		firstErr    error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			fn := newWorker()
			local := 0
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					break
				}
				count, idx, err := runRange(lo, min(lo+chunk, n), fn)
				local += count
				if err != nil {
					mu.Lock()
					if idx < firstIdx {
						firstIdx, firstErr = idx, err
					}
					mu.Unlock()
					break
				}
			}
			total.Add(int64(local))
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return int(total.Load()), nil
}

// runRange runs trials [lo, hi) in order and returns the hit count, plus
// the index and error of the first failure.
func runRange(lo, hi int, fn func(int) (bool, error)) (count, failed int, err error) {
	for i := lo; i < hi; i++ {
		var hit bool
		if hit, err = fn(i); err != nil {
			return count, i, err
		}
		if hit {
			count++
		}
	}
	return count, -1, nil
}

// workerCount resolves a workers argument (0 or less means GOMAXPROCS) and
// caps it at n trials.
func workerCount(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 1)
}

// chunkSize picks the work-stealing grain: small enough that slow trials
// cannot strand one worker with a long tail (≥ 8 chunks per worker when
// trials allow), large enough to amortize the atomic claim.
func chunkSize(n, workers int) int {
	return min(max(n/(workers*8), 1), 64)
}
