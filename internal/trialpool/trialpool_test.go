package trialpool

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

func TestCountMatchesSerialLoop(t *testing.T) {
	hit := func(i int) bool { return (i*2654435761)%7 < 3 }
	for _, n := range []int{0, 1, 5, 64, 1000} {
		want := 0
		for i := 0; i < n; i++ {
			if hit(i) {
				want++
			}
		}
		for _, workers := range []int{0, 1, 2, 3, 8} {
			got, err := Count(n, workers, func() func(int) (bool, error) {
				return func(i int) (bool, error) { return hit(i), nil }
			})
			if err != nil || got != want {
				t.Fatalf("n=%d workers=%d: Count = (%d, %v), want %d", n, workers, got, err, want)
			}
		}
	}
}

// TestCountLowestErrorWins: whichever worker meets which failure first, the
// error reported is the lowest failing index's, and the count is 0.
func TestCountLowestErrorWins(t *testing.T) {
	failing := map[int]bool{37: true, 38: true, 200: true, 999: true}
	for _, workers := range []int{1, 2, 3, 8} {
		for rep := 0; rep < 20; rep++ {
			got, err := Count(1000, workers, func() func(int) (bool, error) {
				return func(i int) (bool, error) {
					if failing[i] {
						return false, fmt.Errorf("trial %d", i)
					}
					return true, nil
				}
			})
			if err == nil || err.Error() != "trial 37" || got != 0 {
				t.Fatalf("workers=%d: Count = (%d, %v), want (0, trial 37)", workers, got, err)
			}
		}
	}
}

func TestCountBuildsOneTrialFunctionPerWorker(t *testing.T) {
	built := make(chan struct{}, 16)
	if _, err := Count(100, 3, func() func(int) (bool, error) {
		built <- struct{}{}
		return func(int) (bool, error) { return false, nil }
	}); err != nil {
		t.Fatal(err)
	}
	if len(built) != 3 {
		t.Fatalf("built %d trial functions for 3 workers", len(built))
	}
	if _, err := Count(2, 8, func() func(int) (bool, error) {
		return func(int) (bool, error) { return false, errors.New("boom") }
	}); err == nil {
		t.Fatal("error swallowed when workers exceed trials")
	}
}

func TestChunkSize(t *testing.T) {
	if got := chunkSize(10, 4); got != 1 {
		t.Errorf("chunkSize(10,4) = %d, want 1", got)
	}
	if got := chunkSize(1000, 2); got != 62 {
		t.Errorf("chunkSize(1000,2) = %d, want 62", got)
	}
	if got := chunkSize(100000, 4); got != 64 {
		t.Errorf("chunkSize(100000,4) = %d, want 64 (cap)", got)
	}
}

func TestWorkerCount(t *testing.T) {
	if got := workerCount(5, 3); got != 3 {
		t.Errorf("workerCount capped = %d, want 3", got)
	}
	if got := workerCount(5, 100); got != 5 {
		t.Errorf("workerCount = %d, want 5", got)
	}
	if got := workerCount(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default workerCount = %d, want GOMAXPROCS", got)
	}
}
