package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/unifdist/unifdist/internal/wire"
)

// benchRule accepts on a reject threshold and deliberately implements no
// EarlyDecider: every vote must be decoded, deduplicated and recorded, so
// the benchmark measures the referee's full per-vote path rather than a
// short-circuit.
type benchRule struct{ thr int }

func (r benchRule) Accept(rejects, k int) bool { return rejects <= r.thr }
func (r benchRule) Name() string               { return "bench" }

// benchPayload precomputes node's full wire stream — Hello, votes (one
// frame each, or VoteBatch frames of up to batch votes), Done — so the
// benchmark loop measures referee-side decode+apply, not client-side
// sampling or encoding.
func benchPayload(node, k, trials, batch int) []byte {
	buf := wire.AppendSession(nil, &wire.Hello{Node: uint32(node), K: uint32(k), Trials: uint32(trials)}, 0, wire.TraceContext{})
	if batch <= 0 {
		for t := 0; t < trials; t++ {
			v := &wire.Vote{Trial: uint32(t), Node: uint32(node), Reject: (t+node)%3 == 0}
			buf = wire.AppendSession(buf, v, 0, wire.TraceContext{})
		}
	} else {
		var enc wire.BatchEncoder
		var vb wire.VoteBatch
		for t := 0; t < trials; {
			n := batch
			if trials-t < n {
				n = trials - t
			}
			vb.Votes = vb.Votes[:0]
			for i := 0; i < n; i++ {
				vb.Votes = append(vb.Votes, wire.BatchVote{
					Trial: uint32(t + i), Node: uint32(node), Reject: (t+i+node)%3 == 0,
				})
			}
			out, err := enc.AppendSession(buf, &vb, 0, wire.TraceContext{}, false)
			if err != nil {
				panic(err)
			}
			buf = out
			t += n
		}
	}
	return wire.AppendSession(buf, &wire.Done{Node: uint32(node)}, 0, wire.TraceContext{})
}

// benchSession runs b.N full referee sessions, each synthetic peer
// replaying its precomputed stream, and reports aggregate votes/sec —
// the headline throughput number for the high-throughput transport.
// The peers are the k leaves of a flat star, or — when len(payloads) is
// smaller — the pre-aggregated children of a sharded tree's root; either
// way the session folds k*trials votes.
func benchSession(b *testing.B, k, trials int, payloads [][]byte,
	transport func() (net.Listener, func() (net.Conn, error)), dialLimit int) {
	b.ReportAllocs()
	children := len(payloads)
	for i := 0; i < b.N; i++ {
		l, dial := transport()
		rf := NewReferee(k, benchRule{thr: k}, Config{Trials: trials, Deadline: time.Minute})
		repCh := make(chan *Report, 1)
		go func() {
			rep, err := rf.Serve(l)
			if err != nil {
				b.Error(err)
			}
			repCh <- rep
		}()
		sem := make(chan struct{}, dialLimit)
		var wg sync.WaitGroup
		wg.Add(children)
		for node := 0; node < children; node++ {
			go func(p []byte) {
				defer wg.Done()
				sem <- struct{}{}
				conn, err := dial()
				<-sem
				if err != nil {
					b.Error(err)
					return
				}
				defer conn.Close()
				if _, err := conn.Write(p); err != nil {
					b.Error(err)
					return
				}
				// Hold the connection for the verdict broadcast, like a real
				// node: the session is not over until the referee answers.
				if _, err := wire.NewReader(conn).ReadFrame(); err != nil {
					b.Error(err)
				}
			}(payloads[node])
		}
		wg.Wait()
		rep := <-repCh
		if rep == nil || rep.Stats.Votes != k*trials {
			b.Fatalf("session recorded %d votes, want %d", rep.Stats.Votes, k*trials)
		}
	}
	b.ReportMetric(float64(k*trials)*float64(b.N)/b.Elapsed().Seconds(), "votes/sec")
}

// BenchmarkRefereePipe measures one referee on in-memory transports at
// k = 10^4 peers: the per-frame baseline against the batched path.
func BenchmarkRefereePipe(b *testing.B) {
	const k = 10_000
	pipe := func() (net.Listener, func() (net.Conn, error)) {
		l := NewPipeListener()
		return l, l.Dial
	}
	cases := []struct {
		name   string
		trials int
		batch  int
	}{
		// Fewer trials on the per-frame baseline keep the iteration time
		// sane; votes/sec is a rate, so the comparison stands.
		{"frame", 16, 0},
		{"batch128", 128, 128},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			payloads := make([][]byte, k)
			for node := 0; node < k; node++ {
				payloads[node] = benchPayload(node, k, c.trials, c.batch)
			}
			b.ResetTimer()
			benchSession(b, k, c.trials, payloads, pipe, k)
		})
	}
}

// aggChildPayload precomputes one first-tier aggregator's full upstream
// stream — AggHello, PartialVerdict frames carrying the window's
// per-trial sums, Done — so BenchmarkAggTree measures the root's ingest
// of pre-aggregated traffic, not the aggregation itself.
func aggChildPayload(aggID, lo, hi, k, trials int) []byte {
	buf := wire.AppendSession(nil, &wire.AggHello{
		Agg: uint32(aggID), K: uint32(k), Trials: uint32(trials),
		Lo: uint32(lo), Hi: uint32(hi),
	}, 0, wire.TraceContext{})
	width := hi - lo
	entries := make([]wire.PartialEntry, 0, trials)
	for t := 0; t < trials; t++ {
		// The same (t+node)%3 reject pattern benchPayload uses, pre-summed
		// over the window.
		rejects := 0
		for n := lo; n < hi; n++ {
			if (t+n)%3 == 0 {
				rejects++
			}
		}
		entries = append(entries, wire.PartialEntry{
			Trial: uint32(t), Votes: uint32(width), Rejects: uint32(rejects),
		})
	}
	for len(entries) > 0 {
		n := len(entries)
		if n > wire.MaxPartialEntries {
			n = wire.MaxPartialEntries
		}
		out, err := wire.AppendPartialSession(buf, &wire.PartialVerdict{Agg: uint32(aggID), Entries: entries[:n]}, 0, wire.TraceContext{})
		if err != nil {
			panic(err)
		}
		buf = out
		entries = entries[n:]
	}
	return wire.AppendSession(buf, &wire.Done{Node: uint32(aggID)}, 0, wire.TraceContext{})
}

// BenchmarkAggTree measures the root referee's ingest capacity under the
// two topologies, same harness and transport: a flat star terminates
// every leaf's vote stream at the root, a sharded tree terminates only
// its first-tier aggregators' partial-sum streams there. votes/sec is
// votes folded into the root's tallies per second of session wall time —
// the single-server bottleneck the aggregator tier exists to remove. The
// aggregation work itself scales horizontally across shard servers (and
// is exercised end-to-end by BenchmarkAggTreeEndToEnd); here the
// children replay precomputed streams so the number isolates the root.
func BenchmarkAggTree(b *testing.B) {
	pipe := func() (net.Listener, func() (net.Conn, error)) {
		l := NewPipeListener()
		return l, l.Dial
	}
	const trials = 16
	cases := []struct {
		name   string
		k      int
		fanout int // 0 = flat star (per-frame leaf streams)
	}{
		{"flat/k1e4", 10_000, 0},
		{"fanout8/k1e4", 10_000, 8},
		{"fanout32/k1e4", 10_000, 32},
		{"fanout256/k1e4", 10_000, 256},
		{"flat/k1e5", 100_000, 0},
		{"fanout8/k1e5", 100_000, 8},
		{"fanout32/k1e5", 100_000, 32},
		{"fanout256/k1e5", 100_000, 256},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var payloads [][]byte
			if c.fanout == 0 {
				payloads = make([][]byte, c.k)
				for node := 0; node < c.k; node++ {
					payloads[node] = benchPayload(node, c.k, trials, 0)
				}
			} else {
				payloads = make([][]byte, c.fanout)
				for a := 0; a < c.fanout; a++ {
					lo, hi := a*c.k/c.fanout, (a+1)*c.k/c.fanout
					payloads[a] = aggChildPayload(a, lo, hi, c.k, trials)
				}
			}
			b.ResetTimer()
			benchSession(b, c.k, trials, payloads, pipe, len(payloads))
		})
	}
}

// BenchmarkAggTreeEndToEnd runs the whole tree in-process — real
// Aggregator servers folding real leaf streams — against the flat star.
// On a single machine every tier shares the same cores, so this measures
// protocol overhead rather than the scale-out win; the root-isolating
// BenchmarkAggTree is the headline number.
func BenchmarkAggTreeEndToEnd(b *testing.B) {
	const k, trials = 10_000, 16
	const workers = 512
	run := func(b *testing.B, fanout int) {
		b.ReportAllocs()
		payloads := make([][]byte, k)
		for node := 0; node < k; node++ {
			payloads[node] = benchPayload(node, k, trials, 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rootL := NewPipeListener()
			cfg := Config{Trials: trials, Deadline: time.Minute, Batch: 256}
			rf := NewReferee(k, benchRule{thr: k}, cfg)
			repCh := make(chan *Report, 1)
			go func() {
				rep, err := rf.Serve(rootL)
				if err != nil {
					b.Error(err)
				}
				repCh <- rep
			}()
			dials := make([]func() (net.Conn, error), k)
			var aggWG sync.WaitGroup
			if fanout > 0 {
				for a := 0; a < fanout; a++ {
					lo, hi := a*k/fanout, (a+1)*k/fanout
					aggL := NewPipeListener()
					agg := &Aggregator{ID: uint32(a), Lo: lo, Hi: hi, K: k, Tier: 1,
						Dial: rootL.Dial, Config: cfg}
					aggWG.Add(1)
					go func() {
						defer aggWG.Done()
						if err := agg.Serve(aggL); err != nil {
							b.Error(err)
						}
					}()
					for n := lo; n < hi; n++ {
						dials[n] = aggL.Dial
					}
				}
			} else {
				for n := range dials {
					dials[n] = rootL.Dial
				}
			}
			// Worker-pool leaves: replay the stream and hang up — the
			// verdict broadcast to a closed peer is a bounded no-op, and the
			// pool keeps peak goroutine count independent of k.
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					for node := w; node < k; node += workers {
						conn, err := dials[node]()
						if err != nil {
							b.Error(err)
							return
						}
						if _, err := conn.Write(payloads[node]); err != nil {
							b.Error(err)
						}
						conn.Close()
					}
				}(w)
			}
			wg.Wait()
			rep := <-repCh
			aggWG.Wait()
			if rep == nil || rep.Stats.Votes != k*trials {
				b.Fatalf("session recorded %d votes, want %d", rep.Stats.Votes, k*trials)
			}
		}
		b.ReportMetric(float64(k*trials)*float64(b.N)/b.Elapsed().Seconds(), "votes/sec")
	}
	b.Run("flat", func(b *testing.B) { run(b, 0) })
	b.Run("fanout32", func(b *testing.B) { run(b, 32) })
}

// BenchmarkRefereeTCP is the loopback-socket variant. k stays under the
// container's file-descriptor budget (two fds per connection), and dials
// are throttled so the kernel accept backlog is never overrun.
func BenchmarkRefereeTCP(b *testing.B) {
	const k = 8192
	tcp := func() (net.Listener, func() (net.Conn, error)) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addr := l.Addr().String()
		return l, func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	cases := []struct {
		name   string
		trials int
		batch  int
	}{
		{"frame", 16, 0},
		{"batch128", 128, 128},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			payloads := make([][]byte, k)
			for node := 0; node < k; node++ {
				payloads[node] = benchPayload(node, k, c.trials, c.batch)
			}
			b.ResetTimer()
			benchSession(b, k, c.trials, payloads, tcp, 256)
		})
	}
}

// streamFolder folds precomputed node streams into a sink: read from
// memory, decoded and applied through the sink's handshake and
// Peer.Apply as perfbench's replay does — no connection, no ingest queue.
// Its reader and decode scratch are reused across sessions.
type streamFolder struct {
	rd bytes.Reader
	r  *wire.Reader
	sc wire.DecodeScratch
}

func newStreamFolder() *streamFolder {
	sf := &streamFolder{}
	sf.r = wire.NewReader(&sf.rd)
	return sf
}

// fold folds streams, one per node, into s and returns the frames and
// on-wire bytes it read.
func (sf *streamFolder) fold(s *voteSink, streams [][]byte) (frames int, n int64, err error) {
	for _, st := range streams {
		sf.rd.Reset(st)
		var peer *Peer
		for {
			body, err := sf.r.ReadBody()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, 0, err
			}
			frames++
			n += int64(len(body) + 4) // +4: the length prefix
			f, tc, _, err := wire.DecodeBodySession(body, &sf.sc)
			if err != nil {
				return 0, 0, err
			}
			if peer == nil {
				if peer, err = s.handshake(f); err != nil {
					return 0, 0, err
				}
			} else if _, err := peer.Apply(f, tc, len(body)+4); err != nil {
				return 0, 0, err
			}
		}
	}
	return frames, n, nil
}

// newShardSink returns an aggregator of the node window [lo, hi) of a
// k-node network with its sink prepared as Serve prepares it, but with no
// listener, upstream link or fold goroutine: the trials its folds
// complete collect in pending.
func newShardSink(k, lo, hi int, cfg Config) *Aggregator {
	a := &Aggregator{Lo: lo, Hi: hi, K: k, Config: cfg}
	a.initSession()
	return a
}

// pendingInOrder checks that every trial of a's session reached pending
// exactly once, in trial order.
func pendingInOrder(a *Aggregator) error {
	if len(a.pending) != a.cfg.Trials {
		return fmt.Errorf("%d trials pending, want %d", len(a.pending), a.cfg.Trials)
	}
	for i, t := range a.pending {
		if t != i {
			return fmt.Errorf("pending[%d] is trial %d", i, t)
		}
	}
	return nil
}

// BenchmarkBatchFold isolates batch decode and fold, the sink-side work
// of a batched session, reporting ns per folded vote: a 64-node ×
// 8192-trial session of 1024-vote VoteBatch frames folded by a Referee,
// and the shard of its nodes 0–31 folded by an Aggregator.
func BenchmarkBatchFold(b *testing.B) {
	const k, trials, batch = 64, 8192, 1024
	streams := make([][]byte, k)
	for n := range streams {
		streams[n] = benchPayload(n, k, trials, batch)
	}
	b.Run("referee", func(b *testing.B) {
		benchFold(b, streams, trials, func() (*voteSink, func() error) {
			rf := NewReferee(k, benchRule{thr: k}, Config{Trials: trials})
			return &rf.voteSink, func() error {
				if rep, _, _ := rf.Finalize(); rep.MissingVotes != 0 || rep.Stats.Votes != k*trials {
					return fmt.Errorf("folded %d votes with %d missing, want %d and none", rep.Stats.Votes, rep.MissingVotes, k*trials)
				}
				return nil
			}
		})
	})
	b.Run("aggregator", func(b *testing.B) {
		benchFold(b, streams[:k/2], trials, func() (*voteSink, func() error) {
			a := newShardSink(k, 0, k/2, Config{Trials: trials})
			return &a.voteSink, func() error { return pendingInOrder(a) }
		})
	})
}

// benchFold times b.N folds of streams, each on trials trials, into the
// sink a fresh session returns, and checks each with the session's check;
// building and checking a session are untimed.
func benchFold(b *testing.B, streams [][]byte, trials int, session func() (*voteSink, func() error)) {
	sf := newStreamFolder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, check := session()
		b.StartTimer()
		if _, _, err := sf.fold(s, streams); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := check(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(streams)*trials), "ns/vote")
}
