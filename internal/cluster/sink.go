package cluster

import (
	"errors"
	"fmt"
	"math/bits"
	"net"
	"sync"
	"time"

	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/obs/trace"
	"github.com/unifdist/unifdist/internal/wire"
)

// voteSink is the vote-folding half shared by the Referee and the
// Aggregator: it registers peer connections, validates and deduplicates
// their frames, and folds votes into per-trial sums. Its frames arrive
// through an Ingest (ingest.go), which owns every read loop. What
// happens when a trial's tally advances is the owner's business — the
// referee runs its incremental decision rule (Referee.advance), an
// aggregator watches for window completion (Aggregator.onComplete) — and
// the fold calls that method directly under the sink mutex on the range
// of trials it folded: once per run batch, once per other vote or
// partial entry.
//
// A sink terminates the contiguous node-ID window [lo, hi) of a k-node
// network; the root referee's window is the whole network, an
// aggregator's is its shard. Peers are either direct leaves (Hello) or
// child aggregators (AggHello). Registration keeps them mutually
// exclusive — a leaf cannot claim a node inside a registered aggregator
// window and aggregator windows are pairwise disjoint — and partial
// entries are bounded by their sender's window width, so votes[t] can
// never exceed hi-lo and completion (votes[t] == hi-lo) means every node
// in the window was folded exactly once.
type voteSink struct {
	k      int // global network size (validated against Hello.K)
	lo, hi int // node-ID window [lo, hi) this sink terminates
	span   int // hi - lo
	cfg    Config
	reg    *obs.Registry
	prefix string // metric namespace: "cluster" (referee) or "agg"
	spanNS string // span namespace: "referee" or "agg"
	m      sinkMetrics

	// The owner whose state every fold advances under mu; one is nil.
	referee    *Referee
	aggregator *Aggregator

	mu        sync.Mutex
	voted     []uint64 // (local node, trial) dedup bitset, bit local*trials + trial
	votes     []int    // per-trial votes folded (direct + partial)
	rejects   []int
	direct    []bool // local node claimed by a direct leaf Hello
	nodeDone  []bool // by local node index
	doneCount int
	aggs      []*aggPeer
	conns     []net.Conn
	closed    bool
	rows      []wire.BatchVote // a VoteRun's rows when it folds vote by vote
	stats     RefereeStats
	ing       *Ingest // the ingest its connections are hosted on

	inbox sinkQueue // guarded by ing.mu

	trigger     chan struct{}
	triggerOnce sync.Once
}

// aggPeer is one registered child aggregator: its window and the
// per-trial dedup bitset that makes retransmitted partials idempotent.
// Re-registration (a retrying child redialing) reuses the peer, so dedup
// state survives reconnects.
type aggPeer struct {
	id     uint32
	lo, hi int
	seen   []uint64 // per-trial dedup bitset
}

// sinkMetrics caches the hot-path counters so the per-vote path costs
// one atomic add instead of a registry map lookup per event. All fields
// no-op when telemetry is off (nil-registry metrics are nil no-ops).
type sinkMetrics struct {
	votes       *obs.Counter
	votesDup    *obs.Counter
	badFrames   *obs.Counter
	frames      *obs.Counter
	frameBytes  *obs.Histogram
	batchFill   *obs.Histogram
	dedup       *obs.Gauge
	peersIdle   *obs.Gauge   // <prefix>.peers_idle: nodes that sent Done
	fanin       *obs.Counter // agg.fanin: child aggregators registered
	partials    *obs.Counter // <prefix>.partials: partial frames folded
	partialsDup *obs.Counter // <prefix>.partials_dup: deduplicated entries
	conns       *obs.Counter // <prefix>.connections: accepted connections
	connected   *obs.Gauge   // <prefix>.peers_connected: live readers
	depth       *obs.Gauge   // <prefix>.ingest_depth: queued frame bodies
	// Per-frame-type decode and apply latency histograms of the
	// established types; nil, and never timed, when telemetry is off. The
	// retired type bytes 3 and 7 never decode, so they have no series.
	decodeNS, applyNS [wire.TypeSessionReport + 1]*obs.Histogram
}

// init prepares the sink for one session terminating [lo, hi) of a
// k-node network, with metrics under prefix and spans under spanNS.
func (s *voteSink) init(k, lo, hi int, cfg Config, prefix, spanNS string) {
	span := hi - lo
	s.k, s.lo, s.hi, s.span = k, lo, hi, span
	s.cfg = cfg
	s.reg = cfg.Obs
	s.prefix = prefix
	s.spanNS = spanNS
	s.voted = make([]uint64, (span*cfg.Trials+63)/64)
	s.votes = make([]int, cfg.Trials)
	s.rejects = make([]int, cfg.Trials)
	s.direct = make([]bool, span)
	s.nodeDone = make([]bool, span)
	s.trigger = make(chan struct{})
	s.m = sinkMetrics{
		votes:       s.reg.Counter(s.metricName("votes")),
		votesDup:    s.reg.Counter(s.metricName("votes_dup")),
		badFrames:   s.reg.Counter(s.metricName("bad_frames")),
		frames:      s.reg.Counter(s.metricName("frames")),
		frameBytes:  s.reg.Histogram(s.metricName("frame_bytes"), obs.BytesBuckets()),
		batchFill:   s.reg.Histogram(s.metricName("batch_fill"), obs.BytesBuckets()),
		dedup:       s.reg.Gauge(s.metricName("dedup_occupancy")),
		peersIdle:   s.reg.Gauge(s.metricName("peers_idle")),
		fanin:       s.reg.Counter("agg.fanin" + cfg.MetricSuffix),
		partials:    s.reg.Counter(s.metricName("partials")),
		partialsDup: s.reg.Counter(s.metricName("partials_dup")),
		conns:       s.reg.Counter(s.metricName("connections")),
		connected:   s.reg.Gauge(s.metricName("peers_connected")),
		depth:       s.reg.Gauge(s.metricName("ingest_depth")),
	}
	if s.reg != nil {
		for _, t := range []byte{wire.TypeHello, wire.TypeVote, wire.TypeDone,
			wire.TypeVerdict, wire.TypeVoteBatch, wire.TypeAggHello, wire.TypePartialVerdict} {
			name := wire.TypeName(t)
			s.m.decodeNS[t] = s.reg.Histogram(s.metricName("decode_ns."+name), obs.LatencyBuckets())
			s.m.applyNS[t] = s.reg.Histogram(s.metricName("apply_ns."+name), obs.LatencyBuckets())
		}
	}
}

// metricName builds one sink metric name: the namespace prefix, the base
// name, and the config's label suffix (";k=v", rendered as Prometheus
// labels by the exporter; empty outside the multi-tenant service).
func (s *voteSink) metricName(name string) string {
	return s.prefix + "." + name + s.cfg.MetricSuffix
}

// register records conn for the verdict broadcast, counts the accepted
// connection, and counts its reader on g, the ingest hosting it. It
// reports false once the session closed; the caller then closes conn. The
// reader is counted under the same lock as the closed check, so none can
// start after the owner's shut.
func (s *voteSink) register(conn net.Conn, g *Ingest) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.ing = g
	s.conns = append(s.conns, conn)
	s.stats.Connections++
	s.m.conns.Inc()
	g.readers.Add(1)
	return true
}

// shut closes the sink against further folds and its ingest queue against
// further frames, fires the trigger so a Decided waiter returns, and
// detaches the registered connections for the owner's verdict broadcast.
func (s *voteSink) shut() []net.Conn {
	s.mu.Lock()
	s.closed = true
	s.fire()
	conns, g := s.conns, s.ing
	s.conns = nil
	s.mu.Unlock()
	if g != nil {
		g.retire(s)
	}
	return conns
}

// host runs the accept side of a solo session, a Referee's or an
// Aggregator's, on l: it arms the session's one deadline timer, hosts
// every connection l accepts on a one-worker ingest, waits for the
// trigger and closes l. The owner finalizes, broadcasts the verdict, and
// then closes the returned ingest.
func (s *voteSink) host(l net.Listener) *Ingest {
	deadline := s.cfg.deadline()
	timer := time.AfterFunc(deadline, s.expire)
	ing := NewIngest(1)
	go ing.acceptLoop(s, l, deadline)
	<-s.trigger
	timer.Stop()
	l.Close()
	return ing
}

// expire is the deadline timer's action: unless the trigger already
// fired, it marks the session expired and fires the trigger.
func (s *voteSink) expire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.trigger:
	default:
		s.stats.DeadlineExpired = true
		s.fire()
	}
}

// Broadcast writes the verdict v to every conn and closes it; a nil v
// only closes them. Delivery is bounded and best-effort: a peer that
// already went away must not stall shutdown (net.Pipe writes block until
// read). Referees, aggregators and the session service end every session
// through it.
func Broadcast(conns []net.Conn, v *wire.Verdict) {
	var frame []byte
	if v != nil {
		frame = wire.AppendSession(nil, v, 0, wire.TraceContext{})
	}
	for _, c := range conns {
		if frame != nil {
			c.SetWriteDeadline(time.Now().Add(time.Second)) //unifvet:allow wallclock bounded best-effort verdict broadcast on shutdown
			_, _ = c.Write(frame)
		}
		c.Close()
	}
}

// ingestFrame decodes one frame body bound for the sink and hands it to
// apply, timing both halves into the per-type decode_ns and apply_ns
// histograms when telemetry is on. A body that does not decode, or that
// is bound to another session, counts a bad frame. It reports false when
// the frame broke the protocol; the caller then ends the peer's
// transport, so no later frame from the peer folds.
func (s *voteSink) ingestFrame(body []byte, sc *wire.DecodeScratch,
	apply func(wire.Frame, wire.TraceContext, int) (bool, error)) bool {
	var t0 time.Time
	if s.reg != nil {
		t0 = time.Now() //unifvet:allow wallclock latency histogram sample; enabled only with telemetry, never read by decisions
	}
	f, tc, sess, err := wire.DecodeBodySession(body, sc)
	if err != nil || sess != s.cfg.Session {
		s.countBadFrame(0)
		return false
	}
	ft := f.Type()
	if s.reg != nil {
		s.m.decodeNS[ft].Observe(int64(time.Since(t0))) //unifvet:allow wallclock latency histogram sample; enabled only with telemetry, never read by decisions
		t0 = time.Now()                                 //unifvet:allow wallclock latency histogram sample; enabled only with telemetry, never read by decisions
	}
	_, err = apply(f, tc, len(body)+4) // +4: the length prefix
	if s.reg != nil {
		s.m.applyNS[ft].Observe(int64(time.Since(t0))) //unifvet:allow wallclock latency histogram sample; enabled only with telemetry, never read by decisions
	}
	return err == nil
}

// Peer is one registered peer of a sink: a direct leaf (Hello) or a child
// aggregator (AggHello). The zero Peer is invalid; the ingest's readers
// obtain one from the sink's handshake, and Referee.Handshake hands one to
// callers that read frames themselves. Calls on one Peer must not
// overlap; the ingest applies a sink's frames in arrival order on one
// worker at a time.
type Peer struct {
	s      *voteSink
	node   int      // leaf node ID, or -1 for aggregator peers
	agg    *aggPeer // registered child aggregator, or nil
	recv   *obs.Counter
	failed bool // a frame violated the protocol: refuse every later one
}

// errPeerFailed refuses the frames a peer sends after a protocol
// violation, which the ingest has already stopped reading.
var errPeerFailed = errors.New("cluster: peer already violated the protocol")

// handshake validates and registers a peer's opening frame, a leaf Hello
// or a child AggHello, and returns the peer; a rejected frame counts as a
// bad frame.
func (s *voteSink) handshake(f wire.Frame) (*Peer, error) {
	p := &Peer{s: s, node: -1}
	switch m := f.(type) {
	case *wire.Hello:
		if int(m.K) != s.k || int(m.Trials) != s.cfg.Trials ||
			int(m.Node) < s.lo || int(m.Node) >= s.hi || !s.registerLeaf(int(m.Node)) {
			return nil, s.violation(0, "hello rejected: node %d of k=%d trials=%d", m.Node, m.K, m.Trials)
		}
		p.node = int(m.Node)
	case *wire.AggHello:
		if p.agg = s.registerAgg(m); p.agg == nil {
			return nil, s.violation(0, "agghello rejected: agg %d window [%d, %d)", m.Agg, m.Lo, m.Hi)
		}
	default:
		return nil, s.violation(0, "handshake frame type %d is not Hello or AggHello", f.Type())
	}
	if s.reg != nil {
		name := fmt.Sprintf("peer.%d.recv", p.node)
		if p.agg != nil {
			name = fmt.Sprintf("aggpeer.%d.recv", p.agg.id)
		}
		p.recv = s.reg.Counter(s.metricName(name))
	}
	p.recv.Inc() // the handshake frame itself
	return p, nil
}

// Apply folds one post-handshake frame of wireBytes on-wire bytes (body
// plus length prefix) from the peer through the sink's validation, dedup
// and fold. It reports done when the frame was the peer's Done marker:
// the peer sends nothing further and waits for the verdict. A returned
// error means the frame violated the protocol (counted as a bad frame);
// the caller should end the transport, and the peer refuses every later
// frame, those already delivered included, so exactly the frames before
// the violation fold.
func (p *Peer) Apply(f wire.Frame, tc wire.TraceContext, wireBytes int) (bool, error) {
	if p.failed {
		return false, errPeerFailed
	}
	p.recv.Inc()
	done, err := p.s.applyFrame(f, tc, p.node, p.agg, wireBytes)
	p.failed = err != nil
	return done, err
}

// applyFrame validates and folds one post-handshake frame of wireBytes
// on-wire bytes from a leaf (node ≥ 0) or a child aggregator (agg
// non-nil), counting the frame under the same lock acquisition as its
// fold. It reports done when the frame was the peer's Done marker. A
// frame that violates the protocol — votes or a Done from the wrong peer,
// a batch smuggling another node's votes, a partial from another
// aggregator, any other frame type — counts as a bad frame and returns an
// error.
func (s *voteSink) applyFrame(f wire.Frame, tc wire.TraceContext, node int, agg *aggPeer, wireBytes int) (bool, error) {
	switch m := f.(type) {
	case *wire.Vote:
		if node < 0 || int(m.Node) != node {
			return false, s.violation(wireBytes, "vote from node %d on peer %d", m.Node, node)
		}
		s.apply(wire.BatchVote{Trial: m.Trial, Node: m.Node, Reject: m.Reject}, node, tc, wireBytes)
	case *wire.VoteRun:
		if node < 0 || int(m.Node) != node {
			return false, s.violation(wireBytes, "run of node %d on peer %d", m.Node, node)
		}
		s.applyRun(m, node, tc, wireBytes)
	case *wire.VoteBatch:
		if node < 0 {
			return false, s.violation(wireBytes, "vote batch on aggregator peer")
		}
		for i := range m.Votes {
			if int(m.Votes[i].Node) != node {
				return false, s.violation(wireBytes, "batch smuggles node %d on peer %d", m.Votes[i].Node, node)
			}
		}
		s.applyBatch(m, node, tc, wireBytes)
	case *wire.PartialVerdict:
		if agg == nil || m.Agg != agg.id {
			return false, s.violation(wireBytes, "partial from agg %d on peer", m.Agg)
		}
		s.applyPartial(m, agg, tc, wireBytes)
	case *wire.Done:
		switch {
		case agg != nil && int(m.Node) == int(agg.id):
			s.markDoneRange(agg, wireBytes)
		case agg == nil && node >= 0 && int(m.Node) == node:
			s.markDone(node, wireBytes)
		default:
			return false, s.violation(wireBytes, "done from %d on peer %d", m.Node, node)
		}
		return true, nil
	default:
		return false, s.violation(wireBytes, "unexpected frame type %d after handshake", f.Type())
	}
	return false, nil
}

// registerLeaf claims a node ID for a direct leaf connection; it fails
// when a registered child aggregator's window covers the node, keeping
// the votes[t] ≤ span invariant (the node's votes would arrive twice:
// raw and folded into the aggregator's partial sums).
func (s *voteSink) registerLeaf(node int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.aggs {
		if node >= p.lo && node < p.hi {
			return false
		}
	}
	s.direct[node-s.lo] = true
	return true
}

// registerAgg validates and registers a child aggregator's window. A
// reconnecting child (same ID, same window) reuses its existing peer so
// the partial dedup bitset survives the retry; anything inconsistent —
// shape mismatch, window outside the sink's, overlap with another
// aggregator or with a direct leaf — is rejected.
func (s *voteSink) registerAgg(h *wire.AggHello) *aggPeer {
	if int(h.K) != s.k || int(h.Trials) != s.cfg.Trials {
		return nil
	}
	lo, hi := int(h.Lo), int(h.Hi)
	if lo < s.lo || hi > s.hi { // the codec already enforced lo < hi
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.aggs {
		if p.id == h.Agg {
			if p.lo == lo && p.hi == hi {
				return p // reconnect: dedup state survives
			}
			return nil
		}
		if lo < p.hi && p.lo < hi {
			return nil // overlapping aggregator windows
		}
	}
	for n := lo; n < hi; n++ {
		if s.direct[n-s.lo] {
			return nil // a direct leaf already claimed a covered node
		}
	}
	p := &aggPeer{id: h.Agg, lo: lo, hi: hi,
		seen: make([]uint64, (s.cfg.Trials+63)/64)}
	s.aggs = append(s.aggs, p)
	s.m.fanin.Inc()
	return p
}

// apply folds the one vote of a Vote frame under a <spanNS>.apply span
// parented on the frame's wire trace context, linking the sink's side of
// the trace to the node's send span across the connection.
func (s *voteSink) apply(v wire.BatchVote, node int, tc wire.TraceContext, wireBytes int) {
	var sp *trace.Span
	if s.cfg.Trace.Enabled() {
		sp = s.cfg.Trace.Start(s.spanNS+".apply",
			trace.Context{Trace: trace.ID(tc.Trace), Span: trace.ID(tc.Span)},
			trace.A("trial", int(v.Trial)), trace.A("node", node))
	}
	s.mu.Lock()
	s.countFrameLocked(wireBytes)
	if !s.closed {
		s.foldLocked([]wire.BatchVote{v}, node)
	}
	s.mu.Unlock()
	if sp != nil {
		sp.End()
	}
}

// applyBatch folds a whole VoteBatch under one mutex acquisition, vote
// by vote. When tracing is on, the batch gets an apply span parented on
// the frame's wire context, and each vote a derived child span — so a
// batched trace keeps per-vote granularity.
func (s *voteSink) applyBatch(b *wire.VoteBatch, node int, tc wire.TraceContext, wireBytes int) {
	sp := s.startBatchSpan(node, len(b.Votes), tc)
	s.mu.Lock()
	if s.countBatchLocked(len(b.Votes), wireBytes) {
		s.foldLocked(b.Votes, node)
	}
	s.mu.Unlock()
	if sp != nil {
		for i := range b.Votes {
			s.voteSpan(sp, b.Votes[i].Trial, node)
		}
		sp.End()
	}
}

// applyRun folds a VoteRun, node's votes on trials t0 … t0+n−1, under one
// mutex acquisition, with the spans of applyBatch. When the run lies
// inside [0, Trials) and none of its dedup bits is set, it claims the
// bits a 64-bit word at a time, adds each trial's vote and reject bit
// straight from the bitset and calls the owner's hook once. Otherwise it
// folds the run's rows vote by vote, which counts their duplicates and
// out-of-range trials exactly.
func (s *voteSink) applyRun(r *wire.VoteRun, node int, tc wire.TraceContext, wireBytes int) {
	sp := s.startBatchSpan(node, r.N, tc)
	t0, n := int(r.Trial), r.N
	lo := (node-s.lo)*s.cfg.Trials + t0
	s.mu.Lock()
	if s.countBatchLocked(n, wireBytes) {
		if t0+n <= s.cfg.Trials && claimBits(s.voted, lo, lo+n) {
			counts, rejects := s.votes[t0:t0+n], s.rejects[t0:t0+n]
			for i := range counts {
				counts[i]++
			}
			for j, b := range r.Rejects {
				for ; b != 0; b &= b - 1 {
					rejects[8*j+bits.TrailingZeros8(b)]++
				}
			}
			s.tallyLocked(n, 0)
			s.advanceLocked(t0, n)
		} else {
			s.rows = r.AppendVotes(s.rows[:0])
			s.foldLocked(s.rows, node)
		}
	}
	s.mu.Unlock()
	if sp != nil {
		for i := 0; i < n; i++ {
			s.voteSpan(sp, r.Trial+uint32(i), node)
		}
		sp.End()
	}
}

// startBatchSpan starts the <spanNS>.applybatch span of an n-vote batch
// frame from node, parented on the frame's wire trace context; it returns
// nil when tracing is off.
func (s *voteSink) startBatchSpan(node, n int, tc wire.TraceContext) *trace.Span {
	if !s.cfg.Trace.Enabled() {
		return nil
	}
	return s.cfg.Trace.Start(s.spanNS+".applybatch", trace.Context{Trace: trace.ID(tc.Trace), Span: trace.ID(tc.Span)},
		trace.A("node", node), trace.A("votes", n))
}

// voteSpan emits the <spanNS>.apply span of node's vote on trial, a
// derived child of its batch's span sp.
func (s *voteSink) voteSpan(sp *trace.Span, trial uint32, node int) {
	ctx := sp.Context()
	s.cfg.Trace.StartID(s.spanNS+".apply",
		trace.Derive(s.spanNS+".apply", uint64(ctx.Trace), uint64(trial), uint64(node)),
		ctx, trace.A("trial", int(trial)), trace.A("node", node)).End()
}

// countBatchLocked accounts one batch frame of n votes and wireBytes
// on-wire bytes and reports whether its votes should fold: false once the
// session closed. Callers hold s.mu.
func (s *voteSink) countBatchLocked(n, wireBytes int) bool {
	s.countFrameLocked(wireBytes)
	s.m.batchFill.Observe(int64(n))
	if s.closed {
		return false
	}
	s.stats.BatchFrames++
	s.stats.BatchedVotes += n
	return true
}

// foldLocked folds one frame's votes from node in a single loop: per vote
// the trial range check, the (node, trial) dedup bit, the per-trial sums
// and the owner's hook. Callers hold s.mu and have checked s.closed.
func (s *voteSink) foldLocked(votes []wire.BatchVote, node int) {
	base, trials := uint(node-s.lo)*uint(s.cfg.Trials), uint(s.cfg.Trials)
	voted, counts, rejects := s.voted, s.votes, s.rejects
	folded, dups, bad := 0, 0, 0
	for i := range votes {
		v := &votes[i]
		trial := uint(v.Trial)
		if trial >= trials {
			bad++
			continue
		}
		idx := base + trial
		if voted[idx/64]&(1<<(idx%64)) != 0 {
			dups++
			continue
		}
		voted[idx/64] |= 1 << (idx % 64)
		counts[trial]++
		if v.Reject {
			rejects[trial]++
		}
		folded++
		s.advanceLocked(int(trial), 1)
	}
	s.stats.DuplicateVotes += dups
	s.m.votesDup.Add(int64(dups))
	s.tallyLocked(folded, bad)
}

// advanceLocked hands trials t0 … t0+n−1, just folded into, to the
// owner. Callers hold s.mu.
func (s *voteSink) advanceLocked(t0, n int) {
	if s.referee != nil {
		s.referee.advance(t0, n)
	} else {
		s.aggregator.onComplete(t0, n)
	}
}

// claimBits sets bits [lo, hi) of a bitset, lo < hi, if none of them is
// set, and reports whether it did. It tests and then sets them a 64-bit
// word at a time.
func claimBits(bits []uint64, lo, hi int) bool {
	first, last := lo/64, (hi-1)/64
	head, tail := ^uint64(0)<<(lo%64), ^uint64(0)>>(63-(hi-1)%64)
	if first == last {
		head &= tail
		tail = head
	}
	acc := bits[first]&head | bits[last]&tail
	for i := first + 1; i < last; i++ {
		acc |= bits[i]
	}
	if acc != 0 {
		return false
	}
	bits[first] |= head
	for i := first + 1; i < last; i++ {
		bits[i] = ^uint64(0)
	}
	bits[last] |= tail
	return true
}

// tallyLocked adds one frame's folded votes and out-of-range entries to
// the stats and counters, and refreshes the dedup_occupancy gauge — the
// set fraction of the (node, trial) dedup bitset, a live progress probe
// for the export server — once per frame. Callers hold s.mu.
func (s *voteSink) tallyLocked(folded, bad int) {
	s.stats.Votes += folded
	s.stats.BadFrames += bad
	s.m.votes.Add(int64(folded))
	s.m.badFrames.Add(int64(bad))
	if s.reg != nil {
		s.m.dedup.Set(float64(s.stats.Votes) / float64(s.span*s.cfg.Trials))
	}
}

// applyPartial merges a child aggregator's per-trial partial sums under
// one mutex acquisition. Each (trial, child) pair folds exactly once —
// the peer's seen bitset deduplicates retransmitted entries, so a
// retrying child replaying its flushed log is idempotent. Entry validity
// is bounded by the sender's window: a partial claiming more votes than
// the window holds is a bad frame, which keeps votes[t] ≤ span and the
// completion/quorum arithmetic exact. Stats and counters are updated once
// per frame.
func (s *voteSink) applyPartial(pv *wire.PartialVerdict, peer *aggPeer, tc wire.TraceContext, wireBytes int) {
	var sp *trace.Span
	if s.cfg.Trace.Enabled() {
		sp = s.cfg.Trace.Start(s.spanNS+".applypartial",
			trace.Context{Trace: trace.ID(tc.Trace), Span: trace.ID(tc.Span)},
			trace.A("agg", int(pv.Agg)), trace.A("entries", len(pv.Entries)))
	}
	width := peer.hi - peer.lo
	s.mu.Lock()
	s.countFrameLocked(wireBytes)
	if !s.closed {
		s.stats.PartialFrames++
		folded, dups, bad := 0, 0, 0
		for i := range pv.Entries {
			e := &pv.Entries[i]
			trial := int(e.Trial)
			if trial < 0 || trial >= s.cfg.Trials || int(e.Votes) > width {
				bad++
				continue
			}
			if peer.seen[trial/64]&(1<<(trial%64)) != 0 {
				dups++
				continue
			}
			peer.seen[trial/64] |= 1 << (trial % 64)
			s.votes[trial] += int(e.Votes)
			s.rejects[trial] += int(e.Rejects)
			folded += int(e.Votes)
			s.advanceLocked(trial, 1)
		}
		s.stats.PartialVotes += folded
		s.stats.DuplicatePartials += dups
		s.m.partialsDup.Add(int64(dups))
		s.tallyLocked(folded, bad)
	}
	s.mu.Unlock()
	s.m.partials.Inc()
	if sp != nil {
		sp.End()
	}
}

// markDone registers a leaf's Done marker, a frame of wireBytes on-wire
// bytes; the sink fires when every node in its window reported done.
func (s *voteSink) markDone(node, wireBytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countFrameLocked(wireBytes)
	if s.closed || s.nodeDone[node-s.lo] {
		return
	}
	s.nodeDone[node-s.lo] = true
	s.doneCount++
	// Idle-peer accounting: a node that sent Done holds its connection
	// open only for the verdict broadcast.
	s.m.peersIdle.Add(1)
	if s.doneCount == s.span {
		s.fire()
	}
}

// markDoneRange registers a child aggregator's Done, a frame of
// wireBytes on-wire bytes: the child only sends it after every leaf in its
// window reported done, so the whole window is marked at once.
func (s *voteSink) markDoneRange(peer *aggPeer, wireBytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countFrameLocked(wireBytes)
	if s.closed {
		return
	}
	for n := peer.lo; n < peer.hi; n++ {
		if s.nodeDone[n-s.lo] {
			continue
		}
		s.nodeDone[n-s.lo] = true
		s.doneCount++
		s.m.peersIdle.Add(1)
	}
	if s.doneCount == s.span {
		s.fire()
	}
}

// fire triggers session finalization once.
func (s *voteSink) fire() {
	s.triggerOnce.Do(func() { close(s.trigger) })
}

// countFrame accounts one received frame of wireBytes on-wire bytes.
func (s *voteSink) countFrame(wireBytes int) {
	s.mu.Lock()
	s.countFrameLocked(wireBytes)
	s.mu.Unlock()
}

// countFrameLocked is countFrame under a held s.mu: every frame that
// decodes for the sink passes here exactly once, whether it folds or
// violates the protocol.
func (s *voteSink) countFrameLocked(wireBytes int) {
	s.stats.Frames++
	s.stats.Bytes += int64(wireBytes)
	s.m.frames.Inc()
	s.m.frameBytes.Observe(int64(wireBytes))
}

// countBadFrame tallies a rejected frame of wireBytes on-wire bytes;
// wireBytes 0 leaves the frame accounting to the caller, as for handshake
// frames and frames that did not decode.
func (s *voteSink) countBadFrame(wireBytes int) {
	s.mu.Lock()
	if wireBytes > 0 {
		s.countFrameLocked(wireBytes)
	}
	s.stats.BadFrames++
	s.mu.Unlock()
	s.m.badFrames.Inc()
}

// violation counts a bad frame (see countBadFrame) and returns the
// protocol error describing it.
func (s *voteSink) violation(wireBytes int, format string, args ...any) error {
	s.countBadFrame(wireBytes)
	return fmt.Errorf("cluster: "+format, args...)
}
