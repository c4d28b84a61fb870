package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/cluster/service"
	"github.com/unifdist/unifdist/internal/obs/trace"
	"github.com/unifdist/unifdist/internal/wire"
)

// clients is the number of closed-loop clients: one per core of the
// two-core host the benchmark was designed on. Each holds its session's
// control connection and at most one node connection at a time.
const clients = 2

// svcWorkload shapes one service workload.
type svcWorkload struct {
	k, trials int
	batch     int  // votes per VoteBatch frame; 0 sends one Vote frame per vote
	shards    int  // aggregator shards per session; 0 connects nodes to the service
	journal   bool // per-session journals
	pool      int  // distinct precomputed session inputs, a multiple of 4
	warmup    int  // warm-up sessions per client in set-up
}

// svcWorkloads are the service workloads; README.md gives the reasons.
var svcWorkloads = map[string]svcWorkload{
	"svc-frames":   {k: 64, trials: 128, journal: true, pool: 16, warmup: 8},
	"tree-batched": {k: 64, trials: wire.MaxReportTrials, batch: 1024, shards: 2, pool: 4, warmup: 1},
}

// svcBench is one set-up service workload: precomputed inputs, the
// service listening on loopback, and the session plan cursor.
type svcBench struct {
	w        svcWorkload
	seed     uint64
	inputs   []*input
	voteTime time.Duration // VoteAt time spent building inputs
	svc      *service.Service
	served   chan error
	addr     string
	jdir     string
	next     atomic.Int64 // index of the next session in the plan
	dials    atomic.Int64
	jbytes   int64 // journal bytes and files, measured by close
	jfiles   int
}

// setupSvc builds the inputs and references, starts the service and runs
// the warm-up sessions: the fixed set-up work setup_s measures.
func setupSvc(w svcWorkload, seed uint64, dir string) (*svcBench, error) {
	nws, err := buildNetworks(w.k)
	if err != nil {
		return nil, err
	}
	b := &svcBench{w: w, seed: seed, served: make(chan error, 1)}
	if b.inputs, b.voteTime, err = makeInputs(nws, seed, w.pool, w.trials); err != nil {
		return nil, err
	}
	if w.journal {
		if b.jdir, err = os.MkdirTemp(dir, "journals-"); err != nil {
			return nil, fmt.Errorf("journal dir: %w", err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if b.jdir != "" {
			os.RemoveAll(b.jdir)
		}
		return nil, fmt.Errorf("listen: %w", err)
	}
	b.addr = l.Addr().String()
	b.svc = service.New(service.Config{MaxK: w.k, JournalDir: b.jdir})
	go func() { b.served <- b.svc.Serve(l) }()
	if ph := b.runPhase(nil, time.Time{}, w.warmup); ph.failed > 0 {
		b.close()
		return nil, fmt.Errorf("warm-up: %d of %d sessions failed: %v", ph.failed, ph.sessions(), ph.firstErr)
	}
	return b, nil
}

// close stops the service, waits for it, measures the journals the
// finished sessions wrote, and removes them.
func (b *svcBench) close() error {
	b.svc.Close()
	err := <-b.served
	if b.jdir == "" {
		return err
	}
	files, gerr := filepath.Glob(filepath.Join(b.jdir, "session-*.jsonl"))
	for _, f := range files {
		st, serr := os.Stat(f)
		if serr != nil {
			gerr = serr
			break
		}
		b.jbytes += st.Size()
	}
	b.jfiles = len(files)
	if rerr := os.RemoveAll(b.jdir); gerr == nil {
		gerr = rerr
	}
	if err == nil {
		err = gerr
	}
	return err
}

// phase is the outcome of running sessions from both clients.
type phase struct {
	lat      []time.Duration // of verified sessions: service.Open → report
	failed   int
	votes    int // votes in verified reports
	wall     time.Duration
	firstErr error
}

func (p *phase) sessions() int { return len(p.lat) + p.failed }

func (p *phase) merge(o *phase) {
	p.lat = append(p.lat, o.lat...)
	p.failed += o.failed
	p.votes += o.votes
	p.wall += o.wall
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

// latencyMS is the nearest-rank q-quantile of session latency in ms. A
// failed session ranks slower than every other; if the rank lands on one,
// the phase's wall time stands in for its latency.
func (p *phase) latencyMS(q float64) float64 {
	if p.sessions() == 0 {
		return 0
	}
	rank := max(int(math.Ceil(q*float64(p.sessions())))-1, 0)
	if rank >= len(p.lat) {
		return float64(p.wall) / 1e6
	}
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
	return float64(p.lat[rank]) / 1e6
}

// runPhase runs both closed-loop clients: perClient sessions each when
// perClient > 0, otherwise new sessions until the deadline. Spans go to
// tr, which may be nil.
func (b *svcBench) runPhase(tr *trace.Tracer, until time.Time, perClient int) phase {
	start := time.Now()
	res := make([]phase, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := range res {
		go func(c int) {
			defer wg.Done()
			var st streams
			for n := 0; ; n++ {
				if perClient > 0 && n >= perClient || perClient == 0 && !time.Now().Before(until) {
					return
				}
				i := int(b.next.Add(1) - 1)
				t0 := time.Now()
				votes, err := b.session(tr, c, i, &st)
				if err != nil {
					res[c].failed++
					if res[c].firstErr == nil {
						res[c].firstErr = fmt.Errorf("session %d: %w", i, err)
					}
					continue
				}
				res[c].lat = append(res[c].lat, time.Since(t0))
				res[c].votes += votes
			}
		}(c)
	}
	wg.Wait()
	var ph phase
	for c := range res {
		ph.merge(&res[c])
	}
	ph.wall = time.Since(start)
	return ph
}

// session runs plan entry i from one client: open, encode, send every
// node's stream on its own connection, wait for the report, and check it
// against the reference. It returns the votes verified.
func (b *svcBench) session(tr *trace.Tracer, client, i int, st *streams) (int, error) {
	in := b.inputs[planInput(b.seed, i, len(b.inputs))]
	root := tr.Start("bench.session", trace.Context{}, trace.A("session", i))
	defer root.End()
	ctx := root.Context()

	open, err := openFrame(in, uint32(client+1))
	if err != nil {
		return 0, err
	}
	sp := tr.Start("service.Open", ctx)
	c, err := service.Open(func() (net.Conn, error) { return b.dial(tr, ctx, b.addr) }, open)
	sp.End()
	if err != nil {
		return 0, err
	}
	sp = tr.Start("frame.encode", ctx, trace.A("votes", in.k*in.trials))
	err = encodeSession(st, in, c.Session(), b.w.batch)
	sp.End()
	if err != nil {
		c.Close()
		return 0, err
	}

	var shards []*shard
	if b.w.shards > 0 {
		shards, err = b.startShards(tr, ctx, in, c.Session())
	}
	for node := 0; node < in.k && err == nil; node++ {
		addr := b.addr
		if shards != nil {
			addr = shards[node*len(shards)/in.k].addr
		}
		err = b.sendNode(tr, ctx, addr, st, node, in.trials)
	}
	if err != nil {
		// Hanging up the control connection finalizes the session, whose
		// verdict broadcast also ends the shards.
		c.Close()
		waitShards(shards)
		return 0, err
	}
	sp = tr.Start("Client.Wait", ctx)
	rep, err := c.Wait()
	sp.End()
	if err != nil {
		c.Close()
	}
	if serr := waitShards(shards); err == nil {
		err = serr
	}
	if err != nil {
		return 0, err
	}
	if err := checkReport(rep, in); err != nil {
		return 0, err
	}
	return in.k * in.trials, nil
}

// dial opens one loopback connection. A dial error fails the session; it
// is never retried.
func (b *svcBench) dial(tr *trace.Tracer, ctx trace.Context, addr string) (net.Conn, error) {
	b.dials.Add(1)
	sp := tr.Start("net.Dial", ctx)
	conn, err := net.Dial("tcp", addr)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return conn, nil
}

// sendNode replays one node: dial, write its frames Hello…Done one write
// per frame, close.
func (b *svcBench) sendNode(tr *trace.Tracer, ctx trace.Context, addr string, st *streams, node, votes int) error {
	conn, err := b.dial(tr, ctx, addr)
	if err != nil {
		return fmt.Errorf("node %d: %w", node, err)
	}
	sp := tr.Start("conn.Write", ctx, trace.A("votes", votes))
	for f := st.first[node]; f < st.first[node+1] && err == nil; f++ {
		_, err = conn.Write(st.frame(f))
	}
	sp.End()
	conn.Close()
	if err != nil {
		return fmt.Errorf("node %d write: %w", node, err)
	}
	return nil
}

// shard is one aggregator serving a session's node window.
type shard struct {
	addr string
	done chan error
}

// startShards starts the session's aggregators on fresh loopback
// listeners. On error it returns the shards already started, which end
// when the session is finalized.
func (b *svcBench) startShards(tr *trace.Tracer, ctx trace.Context, in *input, session uint32) ([]*shard, error) {
	shards := make([]*shard, 0, b.w.shards)
	for a := 0; a < b.w.shards; a++ {
		lo, hi := shardWindow(in.k, b.w.shards, a)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return shards, fmt.Errorf("shard %d listen: %w", a, err)
		}
		agg := &cluster.Aggregator{
			ID: uint32(a), Lo: lo, Hi: hi, K: in.k, Tier: 1,
			Dial: func() (net.Conn, error) { return b.dial(tr, ctx, b.addr) },
			// A count watermark of a full partial frame, and a byte
			// watermark it never reaches, make every flush a full frame.
			Config: cluster.Config{Trials: in.trials, BaseSeed: in.base, Session: session,
				Batch: wire.MaxPartialEntries, FlushBytes: wire.MaxBatchFrameBytes},
		}
		sh := &shard{addr: l.Addr().String(), done: make(chan error, 1)}
		shards = append(shards, sh)
		go func(a int) {
			sp := tr.Start("Aggregator.Serve", ctx, trace.A("agg", a))
			err := agg.Serve(l)
			sp.End()
			sh.done <- err
		}(a)
	}
	return shards, nil
}

// waitShards waits for every shard to end and returns the first error.
func waitShards(shards []*shard) error {
	var first error
	for _, sh := range shards {
		if err := <-sh.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}
