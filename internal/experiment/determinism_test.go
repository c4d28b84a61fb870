package experiment

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"github.com/unifdist/unifdist/internal/rng"
)

// renderAt runs one experiment at the given GOMAXPROCS and returns the
// rendered text table. Workers is left at 0 so both the row pool and the
// trial engine size themselves from GOMAXPROCS — the dimension the
// determinism guarantee must be independent of.
func renderAt(t *testing.T, id string, procs int) string {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("%s missing", id)
	}
	tbl, err := e.Run(NewRunContext(Quick, 7))
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatalf("%s render: %v", id, err)
	}
	return buf.String()
}

// TestTablesDeterministicAcrossGOMAXPROCS checks the parallel-engine
// contract end to end: the same seed must produce byte-identical E2, E3,
// E6, E8 and E9 tables at GOMAXPROCS 1, 2, and 8. The concurrent sweep rows
// (RunRows), the shared trial pool (internal/trialpool, behind
// EstimateErrorAt and the SMP estimators) and the flat simulator pool all
// reshape their schedules across these settings; per-index seeding keeps
// the output fixed. E6 and E8 run the CONGEST packaging and LOCAL node
// programs on that pool.
func TestTablesDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, id := range []string{"E2", "E3", "E6", "E8", "E9"} {
		want := renderAt(t, id, 1)
		for _, procs := range []int{2, 8} {
			if got := renderAt(t, id, procs); got != want {
				t.Errorf("%s table differs at GOMAXPROCS=%d:\n--- GOMAXPROCS=1 ---\n%s\n--- GOMAXPROCS=%d ---\n%s",
					id, procs, want, procs, got)
			}
		}
	}
}

// TestE7DeterministicAcrossGOMAXPROCS is the same pin for the CONGEST
// experiment, whose quick render simulates two 8000-node topologies once
// each and runs 4000 indexed trials on their virtual networks: the flat
// simulator pool and the trial pool must both collapse to the same bytes.
// It runs in its own test because each render costs about a second —
// skipped under the race detector, where a render takes over ten.
func TestE7DeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("E7 renders are too slow under the race detector")
	}
	want := renderAt(t, "E7", 1)
	for _, procs := range []int{2, 8} {
		if got := renderAt(t, "E7", procs); got != want {
			t.Errorf("E7 table differs at GOMAXPROCS=%d:\n--- GOMAXPROCS=1 ---\n%s\n--- GOMAXPROCS=%d ---\n%s",
				procs, want, procs, got)
		}
	}
}

// TestRunRowsOrderAndSeeding checks RunRows' core promises directly: rows
// come back in index order and row i sees the i-th sequential split of the
// caller's generator regardless of worker count.
func TestRunRowsOrderAndSeeding(t *testing.T) {
	const count = 9
	build := func(workers int) [][]string {
		ctx := &RunContext{Mode: Quick, Seed: 1, Workers: workers}
		rows, err := ctx.RunRows(rng.New(42), count, func(row int, rr *rng.RNG) ([]string, error) {
			return []string{fmt.Sprintf("%d:%d", row, rr.Uint64())}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	want := build(1)
	for i, row := range want {
		if wantPrefix := fmt.Sprintf("%d:", i); len(row) != 1 || row[0][:len(wantPrefix)] != wantPrefix {
			t.Fatalf("row %d out of order: %v", i, row)
		}
	}
	for _, workers := range []int{2, 3, 8, 100} {
		got := build(workers)
		for i := range want {
			if got[i][0] != want[i][0] {
				t.Errorf("workers=%d row %d = %q, want %q", workers, i, got[i][0], want[i][0])
			}
		}
	}
}

// TestRunRowsFirstErrorByIndexWins checks that when several rows fail, the
// reported error is the lowest-index one — independent of which goroutine
// finished first.
func TestRunRowsFirstErrorByIndexWins(t *testing.T) {
	ctx := &RunContext{Mode: Quick, Seed: 1, Workers: 4}
	errRow := func(i int) error { return fmt.Errorf("row %d failed", i) }
	_, err := ctx.RunRows(rng.New(1), 8, func(row int, rr *rng.RNG) ([]string, error) {
		if row >= 3 {
			return nil, errRow(row)
		}
		return []string{"ok"}, nil
	})
	if err == nil || err.Error() != errRow(3).Error() {
		t.Errorf("err = %v, want %v", err, errRow(3))
	}
	if _, err := ctx.RunRows(rng.New(1), 4, func(int, *rng.RNG) ([]string, error) {
		return []string{"ok"}, nil
	}); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}
