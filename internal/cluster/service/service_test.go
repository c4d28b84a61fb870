package service_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/cluster/service"
	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/wire"
	"github.com/unifdist/unifdist/internal/zeroround"
)

func andNetwork(t testing.TB, n, k int) *zeroround.Network {
	t.Helper()
	cfg, err := zeroround.SolveAND(n, k, 1.0, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := zeroround.BuildAND(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func thresholdNetwork(t testing.TB, n, k int) *zeroround.Network {
	t.Helper()
	cfg, err := zeroround.SolveThreshold(n, k, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := zeroround.BuildThreshold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// sansStats strips transport accounting and EarlyTrials, as the cluster
// package's differential tests do: those fields legitimately differ
// between transports (and the wire report intentionally omits them).
func sansStats(r *cluster.Report) cluster.Report {
	c := *r
	c.Stats = cluster.RefereeStats{}
	c.EarlyTrials = 0
	return c
}

// startService runs a service over an in-memory listener and returns the
// dial function; cleanup closes the service.
func startService(t testing.TB, cfg service.Config) (*service.Service, func() (net.Conn, error)) {
	t.Helper()
	svc := service.New(cfg)
	l := cluster.NewPipeListener()
	go svc.Serve(l)
	t.Cleanup(func() { svc.Close() })
	return svc, l.Dial
}

// sessionCase is one tenant's workload in the multi-session tests.
type sessionCase struct {
	name string
	nw   *zeroround.Network
	d    dist.Distribution
	cfg  cluster.Config
	plan *cluster.FaultPlan
}

// mixedCases builds the headline workload: ≥8 sessions mixing rules,
// seeds, batching and seeded 10% vote drop.
func mixedCases(t testing.TB) []sessionCase {
	thr := thresholdNetwork(t, 64, 60)
	and := andNetwork(t, 1<<10, 16)
	twoBump := dist.NewTwoBump(64, 1.0, 9)
	uni := dist.NewUniform(1 << 10)
	return []sessionCase{
		{"thr-seed1", thr, twoBump, cluster.Config{Trials: 12, BaseSeed: 1}, nil},
		{"thr-seed77-batch", thr, twoBump, cluster.Config{Trials: 12, BaseSeed: 77, Batch: 16}, nil},
		{"and-seed3", and, uni, cluster.Config{Trials: 8, BaseSeed: 3}, nil},
		{"and-seed41-batch", and, uni, cluster.Config{Trials: 8, BaseSeed: 41, Batch: 64}, nil},
		{"thr-seed5", thr, twoBump, cluster.Config{Trials: 10, BaseSeed: 5}, nil},
		{"thr-drop", thr, twoBump, cluster.Config{Trials: 10, BaseSeed: 9}, &cluster.FaultPlan{Seed: 7, Drop: 0.10}},
		{"thr-drop-batch", thr, twoBump, cluster.Config{Trials: 10, BaseSeed: 13, Batch: 8}, &cluster.FaultPlan{Seed: 11, Drop: 0.10, Dup: 0.10}},
		{"and-drop", and, uni, cluster.Config{Trials: 8, BaseSeed: 21}, &cluster.FaultPlan{Seed: 5, Drop: 0.10}},
	}
}

// TestConcurrentSessionsMatchSolo is the headline differential: many
// concurrent sessions multiplexed over one service, each byte-identical
// (sans transport stats) to its solo flat-star run, and — for the
// fault-free ones — trial-for-trial identical to the indexed reference
// RunAt. Interleaving under seeded faults included.
func TestConcurrentSessionsMatchSolo(t *testing.T) {
	cases := mixedCases(t)
	if len(cases) < 8 {
		t.Fatalf("headline workload has %d sessions, want ≥ 8", len(cases))
	}
	_, dial := startService(t, service.Config{MaxSessions: len(cases)})

	got := make([]*cluster.Report, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	wg.Add(len(cases))
	for i, c := range cases {
		go func(i int, c sessionCase) {
			defer wg.Done()
			got[i], errs[i] = service.Submit(dial, c.cfg, c.nw, c.d, c.plan, uint32(i+1))
		}(i, c)
	}
	wg.Wait()

	for i, c := range cases {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.name, errs[i])
		}
		want, err := cluster.RunPipe(c.cfg, c.nw, c.d, c.plan)
		if err != nil {
			t.Fatalf("%s: solo run: %v", c.name, err)
		}
		if !reflect.DeepEqual(sansStats(got[i]), sansStats(want)) {
			t.Errorf("%s: service report diverged from solo run:\n got %+v\nwant %+v",
				c.name, sansStats(got[i]), sansStats(want))
		}
		if !c.plan.Active() {
			for tr := 0; tr < c.cfg.Trials; tr++ {
				wantAccept, wantRejects := c.nw.RunAt(c.d, c.cfg.BaseSeed, uint64(tr), nil, nil)
				if got[i].Verdicts[tr] != wantAccept || got[i].Rejects[tr] != wantRejects {
					t.Errorf("%s trial %d: (%v, %d), reference (%v, %d)", c.name, tr,
						got[i].Verdicts[tr], got[i].Rejects[tr], wantAccept, wantRejects)
				}
			}
		}
		// Cross-session dedup isolation: every vote of this session — and
		// none from any other — landed in its referee.
		if got[i].K != c.nw.K() || got[i].Trials != c.cfg.Trials {
			t.Errorf("%s: report shape (%d, %d), want (%d, %d)",
				c.name, got[i].K, got[i].Trials, c.nw.K(), c.cfg.Trials)
		}
	}
}

// TestUnboundPeerRefused pins that the service serves no unbound peers: a
// node client whose frames carry session 0 finds no session, even with
// one open, and is dropped as a bad connection.
func TestUnboundPeerRefused(t *testing.T) {
	reg := obs.NewRegistry()
	_, dial := startService(t, service.Config{Obs: reg})
	nw := thresholdNetwork(t, 64, 40)
	cfg := cluster.Config{Trials: 8, BaseSeed: 6}
	open, err := service.OpenFrame(cfg, nw, 9, false)
	if err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, dial, open)
	defer c.Close()
	nc := &cluster.NodeClient{ID: 0, K: nw.K(), Tester: nw.Node(0), Config: cfg, Dial: dial}
	if _, err := nc.Run(dist.NewTwoBump(64, 1.0, 5)); err == nil {
		t.Fatal("a session-0 node client was served")
	}
	if got := reg.Counter("svc.bad_conns").Value(); got != 1 {
		t.Errorf("svc.bad_conns = %d, want 1", got)
	}
}

// TestWaitClosesControlOnError pins that Client.Wait releases the control
// connection when it fails: a fake service answers the open with
// SessionAccept and then a Verdict instead of a SessionReport, and its
// next read must end because the client hung up, not on its deadline.
func TestWaitClosesControlOnError(t *testing.T) {
	l := cluster.NewPipeListener()
	defer l.Close()
	ended := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			ended <- err
			return
		}
		defer conn.Close()
		r := wire.NewReader(conn)
		if _, err := r.ReadBody(); err != nil { // the SessionOpen
			ended <- err
			return
		}
		for _, f := range []wire.Frame{&wire.SessionAccept{Session: 4, Tenant: 1}, &wire.Verdict{Trials: 1}} {
			if err := wire.WriteFrame(conn, f); err != nil {
				ended <- err
				return
			}
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = r.ReadBody()
		ended <- err
	}()
	c := mustOpen(t, l.Dial, &wire.SessionOpen{Tenant: 1, K: 4, Trials: 2, Rule: wire.RuleAND})
	if _, err := c.Wait(); err == nil {
		t.Fatal("Wait accepted a Verdict as the session report")
	}
	if err := <-ended; err != io.EOF {
		t.Fatalf("fake service's read after the failed Wait: %v, want io.EOF (control connection closed)", err)
	}
}

func mustOpen(t *testing.T, dial func() (net.Conn, error), open *wire.SessionOpen) *service.Client {
	t.Helper()
	c, err := service.Open(dial, open)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func wantReject(t *testing.T, dial func() (net.Conn, error), open *wire.SessionOpen, reason byte) {
	t.Helper()
	_, err := service.Open(dial, open)
	var re *service.RejectError
	if !errors.As(err, &re) {
		t.Fatalf("open succeeded or failed untyped (%v), want reject %s", err, wire.RejectReasonName(reason))
	}
	if re.Reason != reason {
		t.Fatalf("rejected with %s, want %s", wire.RejectReasonName(re.Reason), wire.RejectReasonName(reason))
	}
}

// TestAdmissionQuotas walks every typed rejection reason, and pins that
// a SessionOpen that does not decode is dropped as a bad connection, with
// no reject frame and no slot or tenant budget taken.
func TestAdmissionQuotas(t *testing.T) {
	reg := obs.NewRegistry()
	_, dial := startService(t, service.Config{
		MaxSessions:  3,
		TenantBudget: 1000,
		MaxK:         256,
		MaxTrials:    64,
		Obs:          reg,
	})
	ok := &wire.SessionOpen{Tenant: 1, K: 10, Trials: 10, Rule: wire.RuleAND}

	// Shape: zero K, zero trials, K or trials over the cap.
	for _, bad := range []*wire.SessionOpen{
		{Tenant: 1, K: 0, Trials: 10, Rule: wire.RuleAND},
		{Tenant: 1, K: 10, Trials: 0, Rule: wire.RuleAND},
		{Tenant: 1, K: 1000, Trials: 10, Rule: wire.RuleAND},
		{Tenant: 1, K: 10, Trials: 1000, Rule: wire.RuleAND},
	} {
		wantReject(t, dial, bad, wire.RejectShape)
	}
	// Rule: unknown byte, threshold without T.
	for _, bad := range []*wire.SessionOpen{
		{Tenant: 1, K: 10, Trials: 10, Rule: 99},
		{Tenant: 1, K: 10, Trials: 10, Rule: wire.RuleThreshold},
	} {
		wantReject(t, dial, bad, wire.RejectRule)
	}
	// Open flag bit 0 is retired: the open does not decode.
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	open := wire.AppendSession(nil, ok, 0, wire.TraceContext{})
	open[len(open)-1] |= 0x01
	if _, err := conn.Write(open); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.NewReader(conn).ReadFrame(); err != io.EOF {
		t.Fatalf("open with flag bit 0 answered (%v, %v), want the connection closed", f, err)
	}
	conn.Close()
	if got := reg.Counter("svc.bad_conns").Value(); got != 1 {
		t.Errorf("svc.bad_conns = %d after an undecodable open, want 1", got)
	}
	// Budget: tenant 1 holds 100 of 1000; 950 more would overflow, while
	// tenant 2 starts fresh.
	c1 := mustOpen(t, dial, ok)
	defer c1.Close()
	wantReject(t, dial, &wire.SessionOpen{Tenant: 1, K: 95, Trials: 10, Rule: wire.RuleAND}, wire.RejectBudget)
	c2 := mustOpen(t, dial, &wire.SessionOpen{Tenant: 2, K: 10, Trials: 10, Rule: wire.RuleAND})
	defer c2.Close()
	// Sessions: all three slots held.
	c3 := mustOpen(t, dial, &wire.SessionOpen{Tenant: 3, K: 10, Trials: 10, Rule: wire.RuleAND})
	defer c3.Close()
	wantReject(t, dial, &wire.SessionOpen{Tenant: 4, K: 10, Trials: 10, Rule: wire.RuleAND}, wire.RejectSessions)
}

// openUntilAccepted retries an open while the service finishes a prior
// session asynchronously.
func openUntilAccepted(t *testing.T, dial func() (net.Conn, error), open *wire.SessionOpen) *service.Client {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := service.Open(dial, open)
		if err == nil {
			return c
		}
		var re *service.RejectError
		if !errors.As(err, &re) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: still rejected with %s", wire.RejectReasonName(re.Reason))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestExplicitCloseReclaimsSlot pins the explicit-close path: hanging up
// the control connection finalizes the session and frees its slot and
// tenant budget for the next tenant.
func TestExplicitCloseReclaimsSlot(t *testing.T) {
	_, dial := startService(t, service.Config{MaxSessions: 1, TenantBudget: 200})
	open := &wire.SessionOpen{Tenant: 1, K: 10, Trials: 10, Rule: wire.RuleAND}
	c := mustOpen(t, dial, open)
	wantReject(t, dial, &wire.SessionOpen{Tenant: 2, K: 10, Trials: 10, Rule: wire.RuleAND}, wire.RejectSessions)
	c.Close()
	// The same shape — same budget — must be admittable again once the
	// close lands.
	c2 := openUntilAccepted(t, dial, open)
	c2.Close()
}

// TestDeadlineExpiresStalledSession pins stalled-session expiry: a session
// whose nodes never show up is expired at the deadline and finalized
// through the quorum fallback, without disturbing a live session that is
// still making progress; each finishes under its own reason, and its slot
// is reusable afterwards.
func TestDeadlineExpiresStalledSession(t *testing.T) {
	reg := obs.NewRegistry()
	_, dial := startService(t, service.Config{
		MaxSessions: 2,
		Deadline:    300 * time.Millisecond,
		Obs:         reg,
	})
	// The stalled session: opened, no nodes ever connect.
	stalled := mustOpen(t, dial, &wire.SessionOpen{Tenant: 1, K: 4, Trials: 3, Rule: wire.RuleAND})
	// The live session: runs to completion well inside the deadline.
	nw := thresholdNetwork(t, 64, 40)
	d := dist.NewTwoBump(64, 1.0, 5)
	cfg := cluster.Config{Trials: 6, BaseSeed: 6}
	liveRep, err := service.Submit(dial, cfg, nw, d, nil, 2)
	if err != nil {
		t.Fatalf("live session: %v", err)
	}
	want, err := cluster.RunPipe(cfg, nw, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sansStats(liveRep), sansStats(want)) {
		t.Errorf("live session diverged while the other expired:\n got %+v\nwant %+v",
			sansStats(liveRep), sansStats(want))
	}
	// The stalled session's report arrives once its deadline fires: every
	// trial quorum-decided with all votes missing.
	rep, err := stalled.Wait()
	if err != nil {
		t.Fatalf("evicted session report: %v", err)
	}
	if rep.Trials != 3 || rep.MissingVotes != 4*3 || rep.QuorumTrials != 3 {
		t.Fatalf("evicted report: trials=%d missing=%d quorum=%d, want 3/12/3",
			rep.Trials, rep.MissingVotes, rep.QuorumTrials)
	}
	// Each session counts under its own finish reason. The counter is
	// bumped after the report is written, so it settles asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("svc.sessions_finished.expired").Value() != 1 ||
		reg.Counter("svc.sessions_finished.decided").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions finished expired = %d, decided = %d; want 1 and 1",
				reg.Counter("svc.sessions_finished.expired").Value(),
				reg.Counter("svc.sessions_finished.decided").Value())
		}
		time.Sleep(time.Millisecond)
	}
	// Both slots must be free again.
	c1 := openUntilAccepted(t, dial, &wire.SessionOpen{Tenant: 3, K: 4, Trials: 3, Rule: wire.RuleAND})
	defer c1.Close()
	c2 := openUntilAccepted(t, dial, &wire.SessionOpen{Tenant: 4, K: 4, Trials: 3, Rule: wire.RuleAND})
	defer c2.Close()
	if got := reg.Gauge("svc.sessions_active").Value(); got != 2 {
		t.Errorf("sessions_active = %v after reopen, want 2", got)
	}
}

// TestSubmitReportsLowestNodeError pins Submit's error: when every node
// fails — under a fault plan or on a dead dial — it returns the
// lowest-numbered failing node's error, as cluster.StartNodes reports it,
// beside the report of the session the service expired.
func TestSubmitReportsLowestNodeError(t *testing.T) {
	_, dial := startService(t, service.Config{Deadline: 300 * time.Millisecond})
	nw := andNetwork(t, 1<<10, 16)
	d := dist.NewUniform(1 << 10)
	cfg := cluster.Config{Trials: 4, BaseSeed: 3}
	cases := []struct {
		name string
		dial func() (net.Conn, error)
		plan *cluster.FaultPlan
		want string
	}{
		{"fault plan", dial, &cluster.FaultPlan{Seed: 1, Disconnect: 1},
			"cluster: node 0: vote: link disconnected by fault plan"},
		{"dead dial", deadAfterFirst(dial), nil, "cluster: node 0: dial: no route"},
	}
	for _, c := range cases {
		rep, err := service.Submit(c.dial, cfg, nw, d, c.plan, 1)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if rep == nil || rep.MissingVotes != nw.K()*cfg.Trials {
			t.Errorf("%s: report %+v, want every vote missing", c.name, rep)
		}
	}
}

// deadAfterFirst passes its first dial — Submit's control connection —
// through to dial and fails every later one, as a node would see a
// service that went unreachable.
func deadAfterFirst(dial func() (net.Conn, error)) func() (net.Conn, error) {
	var dialed atomic.Bool
	return func() (net.Conn, error) {
		if !dialed.Swap(true) {
			return dial()
		}
		return nil, errors.New("no route")
	}
}

// TestServiceMetrics pins the telemetry contract: the active gauge rises
// and falls with sessions, per-session metric names carry the slot label,
// and label cardinality is bounded by the session quota no matter how
// many sessions have been served.
func TestServiceMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	const quota = 2
	_, dial := startService(t, service.Config{MaxSessions: quota, Obs: reg})
	nw := thresholdNetwork(t, 64, 40)
	d := dist.NewTwoBump(64, 1.0, 5)
	// Serve more sessions than the quota, sequentially, so slots recycle.
	for i := 0; i < 5; i++ {
		cfg := cluster.Config{Trials: 4, BaseSeed: uint64(i)}
		if _, err := service.Submit(dial, cfg, nw, d, nil, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("svc.sessions_opened").Value(); got != 5 {
		t.Errorf("sessions_opened = %d, want 5", got)
	}
	// The last report is delivered just before its session's state is
	// reclaimed, so the gauge settles asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Gauge("svc.sessions_active").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions_active = %v after all sessions ended, want 0",
				reg.Gauge("svc.sessions_active").Value())
		}
		time.Sleep(time.Millisecond)
	}
	snap := reg.Snapshot()
	slots := map[string]bool{}
	for name := range snap.Counters {
		if i := indexOfLabel(name); i >= 0 {
			slot := name[i:]
			slots[slot] = true
		}
	}
	for name := range snap.Gauges {
		if i := indexOfLabel(name); i >= 0 {
			slots[slot(name)] = true
		}
	}
	if len(slots) > quota {
		t.Errorf("metrics carry %d distinct session labels %v, quota is %d", len(slots), slots, quota)
	}
	if !slots[";session=0"] {
		t.Errorf("no metric carries the slot-0 session label; saw %v", slots)
	}
	if reg.Counter("cluster.frames;session=0").Value() == 0 {
		t.Error("cluster.frames;session=0 never counted")
	}
}

func indexOfLabel(name string) int {
	for i := 0; i+9 <= len(name); i++ {
		if name[i:i+9] == ";session=" {
			return i
		}
	}
	return -1
}

func slot(name string) string { return name[indexOfLabel(name):] }

// BenchmarkServiceConcurrentSessions measures aggregate fold throughput
// (votes/sec) and fairness (spread: slowest session's wall time over the
// fastest's) at 1, 4 and 16 concurrent sessions.
func BenchmarkServiceConcurrentSessions(b *testing.B) {
	nw := thresholdNetwork(b, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 9)
	for _, sessions := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			// Slot reclaim is asynchronous (the report reaches the client
			// before the slot frees), so back-to-back iterations need
			// headroom; concurrency stays capped by the submit goroutines.
			_, dial := startService(b, service.Config{MaxSessions: 2 * sessions})
			// Enough trials that steady-state round-robin folding, not
			// per-session connection setup, dominates each wall time.
			const trials = 32
			votes := nw.K() * trials * sessions
			var total time.Duration
			var spreadSum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				durs := make([]time.Duration, sessions)
				var wg sync.WaitGroup
				wg.Add(sessions)
				for s := 0; s < sessions; s++ {
					go func(s int) {
						defer wg.Done()
						start := time.Now()
						cfg := cluster.Config{Trials: trials, BaseSeed: uint64(i*sessions + s), Batch: 16}
						if _, err := service.Submit(dial, cfg, nw, d, nil, uint32(s+1)); err != nil {
							b.Error(err)
						}
						durs[s] = time.Since(start)
					}(s)
				}
				wg.Wait()
				worst, best := durs[0], durs[0]
				for _, du := range durs {
					if du > worst {
						worst = du
					}
					if du < best {
						best = du
					}
				}
				total += worst
				if best > 0 {
					spreadSum += float64(worst) / float64(best)
				}
			}
			b.StopTimer()
			if total > 0 {
				b.ReportMetric(float64(votes)*float64(b.N)/total.Seconds(), "votes/sec")
			}
			b.ReportMetric(spreadSum/float64(b.N), "fairness-spread")
		})
	}
}

// BenchmarkServiceMixedShapes measures fairness between unequal sessions:
// one hot session of 240 nodes × 64 trials, sending one frame per vote,
// starts 5 ms before eight sessions of 8 nodes × 64 trials. It reports the
// small sessions' p50 and p90 wall times and the hot session's mean wall
// time, so a hot session starving the small ones shows as a higher
// small-session p90.
func BenchmarkServiceMixedShapes(b *testing.B) {
	const trials, smalls = 64, 8
	hotNet, smallNet := thresholdNetwork(b, 64, 240), thresholdNetwork(b, 64, 8)
	d := dist.NewTwoBump(64, 1.0, 9)
	// Slot reclaim is asynchronous, so back-to-back iterations need
	// headroom beyond the nine concurrent sessions.
	_, dial := startService(b, service.Config{MaxSessions: 2 * (smalls + 1)})
	submit := func(nw *zeroround.Network, seed uint64, tenant uint32) time.Duration {
		start := time.Now()
		if _, err := service.Submit(dial, cluster.Config{Trials: trials, BaseSeed: seed}, nw, d, nil, tenant); err != nil {
			b.Error(err)
		}
		return time.Since(start)
	}
	var small []time.Duration
	var hotTotal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		durs := make([]time.Duration, smalls)
		var wg sync.WaitGroup
		wg.Add(smalls)
		hotDone := make(chan time.Duration, 1)
		go func() { hotDone <- submit(hotNet, uint64(i), 1) }()
		time.Sleep(5 * time.Millisecond)
		for s := range durs {
			go func() {
				defer wg.Done()
				durs[s] = submit(smallNet, uint64(i*smalls+s), uint32(s+2))
			}()
		}
		wg.Wait()
		hotTotal += <-hotDone
		small = append(small, durs...)
	}
	b.StopTimer()
	sort.Slice(small, func(i, j int) bool { return small[i] < small[j] })
	// Nearest-rank percentiles over every small session of every iteration.
	pct := func(p float64) float64 {
		return float64(small[int(math.Ceil(p*float64(len(small))))-1]) / 1e6
	}
	b.ReportMetric(pct(0.5), "small-p50-ms")
	b.ReportMetric(pct(0.9), "small-p90-ms")
	b.ReportMetric(float64(hotTotal)/1e6/float64(b.N), "hot-ms")
}

// TestViolationEndsPeerOnBothPaths pins one violation policy on both
// entry points. One node stream — Hello, two good votes, a bad frame, two
// more good votes, Done — goes to a solo Referee.Serve and to a service
// session. Both must fold only the first two votes and close the
// connection, whether the bad frame is a vote stamped with another node
// ID, a frame that does not decode, a length prefix past the frame cap, or
// a vote bound to another session.
func TestViolationEndsPeerOnBothPaths(t *testing.T) {
	const k, trials = 4, 8
	stream := func(session uint32, bad string) []byte {
		var buf []byte
		add := func(f wire.Frame) { buf = wire.AppendSession(buf, f, session, wire.TraceContext{}) }
		add(&wire.Hello{Node: 0, K: k, Trials: trials})
		add(&wire.Vote{Trial: 0, Node: 0, Reject: true})
		add(&wire.Vote{Trial: 1, Node: 0})
		switch bad {
		case "wrong node":
			add(&wire.Vote{Trial: 2, Node: 1})
		case "undecodable":
			start := len(buf)
			add(&wire.Vote{Trial: 2, Node: 0})
			buf[len(buf)-1-4] = 2 // the vote's reject flag, before the session field
			// Past the length prefix, the body must fail as a codec error on
			// both paths, not as a wrong-session violation.
			if _, _, _, err := wire.DecodeBodySession(buf[start+4:], nil); !errors.Is(err, wire.ErrFrameSize) {
				t.Fatalf("corrupted vote decodes with %v, want ErrFrameSize", err)
			}
		case "oversize prefix":
			buf = binary.BigEndian.AppendUint32(buf, wire.MaxBatchFrameBytes+1)
		case "wrong session":
			buf = wire.AppendSession(buf, &wire.Vote{Trial: 2, Node: 0}, session+1, wire.TraceContext{})
		}
		add(&wire.Vote{Trial: 3, Node: 0})
		add(&wire.Vote{Trial: 4, Node: 0})
		add(&wire.Done{Node: 0})
		return buf
	}
	// send writes the stream and reports whether the far end closed the
	// connection instead of answering with a verdict at the session end.
	send := func(dial func() (net.Conn, error), session uint32, bad string) bool {
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_, _ = conn.Write(stream(session, bad)) // fails once the far end hangs up
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = wire.NewReader(conn).ReadFrame()
		return err != nil
	}
	want := []int{1, 1, 0, 0, 0, 0, 0, 0}
	for _, bad := range []string{"wrong node", "undecodable", "oversize prefix", "wrong session"} {
		rf := cluster.NewReferee(k, zeroround.ANDRule{}, cluster.Config{Trials: trials, Deadline: 300 * time.Millisecond})
		l := cluster.NewPipeListener()
		solo := make(chan *cluster.Report, 1)
		go func() {
			rep, _ := rf.Serve(l)
			solo <- rep
		}()
		if !send(l.Dial, 0, bad) {
			t.Errorf("%s: solo referee kept the connection open", bad)
		}
		if rep := <-solo; !reflect.DeepEqual(rep.Votes, want) || rep.Stats.BadFrames != 1 {
			t.Errorf("%s: solo referee folded votes %v with %d bad frames, want %v and 1",
				bad, rep.Votes, rep.Stats.BadFrames, want)
		}

		_, dial := startService(t, service.Config{Deadline: 300 * time.Millisecond})
		c := mustOpen(t, dial, &wire.SessionOpen{Tenant: 1, K: k, Trials: trials, Rule: wire.RuleAND})
		if !send(dial, c.Session(), bad) {
			t.Errorf("%s: service kept the connection open", bad)
		}
		rep, err := c.Wait()
		if err != nil {
			t.Fatalf("%s: %v", bad, err)
		}
		if !reflect.DeepEqual(rep.Votes, want) {
			t.Errorf("%s: service session folded votes %v, want %v", bad, rep.Votes, want)
		}
	}
}
