package service_test

import (
	"runtime"
	"testing"
	"time"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/cluster/service"
	"github.com/unifdist/unifdist/internal/dist"
)

// TestSessionsLeaveNoGoroutines checks that no goroutine outlives a
// session: after one service.Submit session and one RunTreePipe session,
// runtime.NumGoroutine returns to its count before the session within a
// bounded wait. A first service session starts the service's ingest
// workers, which live as long as the service, before any count is taken.
func TestSessionsLeaveNoGoroutines(t *testing.T) {
	nw := thresholdNetwork(t, 64, 16)
	d := dist.NewUniform(64)
	cfg := cluster.Config{Trials: 4, BaseSeed: 1}
	_, dial := startService(t, service.Config{MaxSessions: 1})
	submit := func() (*cluster.Report, error) { return service.Submit(dial, cfg, nw, d, nil, 1) }
	if _, err := submit(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func() (*cluster.Report, error)
	}{
		{"service", submit},
		{"tree", func() (*cluster.Report, error) { return cluster.RunTreePipe(cfg, nw, d, nil, 4, 2) }},
	} {
		before := steadyGoroutines()
		rep, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.MissingVotes != 0 {
			t.Fatalf("%s: %d votes missing", c.name, rep.MissingVotes)
		}
		after := runtime.NumGoroutine()
		for wait := time.Now(); after > before && time.Since(wait) < 5*time.Second; after = runtime.NumGoroutine() {
			time.Sleep(10 * time.Millisecond)
		}
		if after > before {
			t.Errorf("%s: %d goroutines before the session, %d five seconds after it", c.name, before, after)
		}
	}
}

// steadyGoroutines returns the goroutine count once it has held for
// 50 ms, or after 2 s: goroutines of an earlier session may still be
// returning.
func steadyGoroutines() int {
	n, held := runtime.NumGoroutine(), 0
	for start := time.Now(); held < 5 && time.Since(start) < 2*time.Second; held++ {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, held = m, -1
		}
	}
	return n
}
