package cluster

import (
	"cmp"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/unifdist/unifdist/internal/obs/trace"
	"github.com/unifdist/unifdist/internal/wire"
)

// Aggregator is one shard server of a hierarchical aggregation tree: it
// terminates the node clients (or child aggregators) of the window
// [Lo, Hi) exactly like a referee — same handshake, dedup bitsets and
// batch decoding, all through the shared voteSink — folds their votes
// into per-trial partial sums, and forwards the sums upstream as
// wire.PartialVerdict frames. Both decision rules are commutative monoids
// over (votes, rejects), so the root referee merging the partials decides
// trial-for-trial exactly as the flat star would.
//
// Flushes happen on the count watermark and at the session drain only
// — never on a wall-clock timer — so a tree run stays deterministic.
// Every flushed entry is also kept in a replay log: if the upstream link
// fails, the aggregator redials and replays the log; the parent's
// per-(trial, child) dedup makes the replay idempotent.
type Aggregator struct {
	// ID identifies this aggregator among its parent's children; it rides
	// the AggHello handshake and every PartialVerdict frame, keying the
	// parent's partial dedup.
	ID uint32
	// Lo, Hi bound the node-ID window [Lo, Hi) this aggregator terminates.
	Lo, Hi int
	// K is the global network size (validated against every Hello).
	K int
	// Tier is the aggregator's level in the tree, 1 = directly above the
	// leaves; it is recorded on the agg.session span.
	Tier int
	// Dial opens the upstream connection (parent aggregator or root).
	Dial func() (net.Conn, error)
	// Config carries the session shape: the referee-relevant fields
	// (Trials, Deadline, Obs, Trace) plus Retries/Backoff for the
	// upstream link and Batch for the partial flush watermark.
	Config Config

	voteSink

	// Fold state, guarded by the sink mutex. onComplete appends completed
	// trials to pending and signals cond; the fold goroutine moves them,
	// with their sums, from pending to the replay log under the mutex and
	// encodes/sends outside it.
	pending  []int
	emitted  []bool // trial already handed to the fold loop
	stopFold bool
	cond     *sync.Cond
	foldErr  error

	// Upstream link. Serve owns conn and buf until it starts the fold
	// goroutine, which owns them until it exits (foldDone); then Serve's
	// finalization takes over — a sequential handoff, so every write to
	// conn comes from its owner and needs no extra lock. upDone and the
	// verdict fields are shared with the reader goroutine and guarded by
	// the sink mutex.
	conn   net.Conn
	buf    []byte // reused frame encode buffer
	upDone chan struct{}
	// log holds every entry the fold loop took from pending, in flush
	// order, at most one per trial; the first sent of them were flushed,
	// and a redialed link replays those.
	log         []wire.PartialEntry
	sent        int
	haveVerdict bool
	verdictMsg  wire.Verdict
}

// Serve runs one aggregation session on l: accept leaves, fold, forward
// partials, relay the final verdict back down. It always closes l. The
// returned error reports an upstream or strict-protocol failure; a
// session the root finalized first (its deadline fired) is not an error
// when the verdict still arrived.
func (a *Aggregator) Serve(l net.Listener) error {
	if a.Config.Trials <= 0 {
		l.Close()
		return fmt.Errorf("cluster: aggregator %d: Trials must be > 0, got %d", a.ID, a.Config.Trials)
	}
	if a.Lo < 0 || a.Hi <= a.Lo || a.Hi > a.K {
		l.Close()
		return fmt.Errorf("cluster: aggregator %d: window [%d, %d) outside [0, %d)", a.ID, a.Lo, a.Hi, a.K)
	}
	a.initSession()

	deadline := a.cfg.deadline()
	sess := a.cfg.Trace.Start("agg.session", trace.Context{},
		trace.A("agg", int(a.ID)), trace.A("lo", a.Lo), trace.A("hi", a.Hi),
		trace.A("tier", a.Tier))
	a.reg.Gauge("agg.sessions_open").Add(1)
	defer a.reg.Gauge("agg.sessions_open").Add(-1)
	defer sess.End()

	if err := a.dialUpstream(sess.Context(), deadline); err != nil {
		l.Close()
		return fmt.Errorf("cluster: aggregator %d: upstream: %w", a.ID, err)
	}

	foldDone := make(chan struct{})
	go a.fold(sess.Context(), foldDone)

	// The session ends on the first of: every node in the window done, a
	// verdict from upstream (the root finalized first), an upstream
	// failure, or the safety-net deadline.
	ing := a.host(l)

	// Fresh upstream I/O budget for the drain-and-finish phase: on the
	// deadline path the session bound is already spent exactly when the
	// final flushes, Done and verdict wait still have to happen.
	a.mu.Lock()
	if a.conn != nil {
		a.conn.SetDeadline(time.Now().Add(deadline)) //unifvet:allow wallclock per-phase I/O safety bound; partial sums are folded state and unaffected
	}
	// Drain: hand every trial with folded votes — complete or not — to
	// the fold loop, then stop it. Incomplete sums let the root's quorum
	// fallback see exactly the votes that arrived.
	a.closed = true
	for t := 0; t < a.cfg.Trials; t++ {
		if a.votes[t] > 0 && !a.emitted[t] {
			a.emitted[t] = true
			a.pending = append(a.pending, t)
		}
	}
	a.stopFold = true
	a.cond.Broadcast()
	a.mu.Unlock()
	<-foldDone

	verdict, err := a.finishUpstream(sess.Context())
	var relay *wire.Verdict
	if err == nil {
		relay = &verdict
	}
	Broadcast(a.shut(), relay)
	ing.Close()
	a.conn.Close()
	a.m.peersIdle.Set(0)
	if err != nil {
		return fmt.Errorf("cluster: aggregator %d: %w", a.ID, err)
	}
	return nil
}

// initSession prepares the aggregator's sink and fold state for one session.
func (a *Aggregator) initSession() {
	a.voteSink.init(a.K, a.Lo, a.Hi, a.Config, "agg", "agg")
	a.aggregator = a
	a.emitted = make([]bool, a.cfg.Trials)
	a.log = make([]wire.PartialEntry, 0, a.cfg.Trials)
	a.cond = sync.NewCond(&a.mu)
}

// onComplete is what the sink's fold calls on the trials t0 … t0+n−1 it
// just folded into: a trial whose every window node has voted has final
// sums, so it joins pending, in trial order, and the fold loop is
// signalled once. Called under the sink mutex; cond.Signal never blocks,
// so no I/O happens under the lock.
func (a *Aggregator) onComplete(t0, n int) {
	queued := len(a.pending)
	votes, emitted := a.votes[t0:t0+n], a.emitted[t0:t0+n]
	for i := range votes {
		if votes[i] == a.span && !emitted[i] {
			emitted[i] = true
			a.pending = append(a.pending, t0+i)
		}
	}
	if len(a.pending) > queued {
		a.cond.Signal()
	}
}

// partialWatermark resolves the count watermark for partial flushes:
// Config.Batch when set, else 1 (flush every completed batch of trials
// the fold loop wakes to — the unbatched analog), capped by the wire
// frame limit.
func (a *Aggregator) partialWatermark() int {
	w := a.cfg.batchSize()
	if w <= 0 {
		w = 1
	}
	if w > wire.MaxPartialEntries {
		w = wire.MaxPartialEntries
	}
	return w
}

// fold is the flush goroutine: it waits for completed trials, moves them
// from pending to the replay log with their sums under the sink mutex,
// and encodes/sends the log's unsent entries as PartialVerdict frames
// outside it on the count watermark, which alone keeps every frame under
// wire.MaxBatchFrameBytes (wire.MaxPartialEntries entries of at most 15
// bytes each). It exits when the session drain hands it the final trials
// (reachable return via stopFold) or on an unrecoverable upstream
// failure.
func (a *Aggregator) fold(sess trace.Context, done chan struct{}) {
	defer close(done)
	watermark := a.partialWatermark()
	for {
		a.mu.Lock()
		for len(a.pending) == 0 && !a.stopFold {
			a.cond.Wait()
		}
		stop := a.stopFold
		for _, t := range a.pending {
			a.log = append(a.log, wire.PartialEntry{Trial: uint32(t), Votes: uint32(a.votes[t]), Rejects: uint32(a.rejects[t])})
		}
		a.pending = a.pending[:0]
		a.mu.Unlock()
		for n := len(a.log) - a.sent; n >= watermark || (stop && n > 0); n = len(a.log) - a.sent {
			if err := a.flushPartial(sess, min(n, wire.MaxPartialEntries)); err != nil {
				a.failFold(err)
				return
			}
		}
		if stop {
			return
		}
	}
}

// flushPartial writes the log's next n unsent entries upstream as one
// PartialVerdict frame, retrying with a full replay on a dead link.
func (a *Aggregator) flushPartial(sess trace.Context, n int) error {
	entries := a.log[a.sent : a.sent+n]
	a.sent += n
	// Sorting keeps the frame content canonical for a given completion
	// set. Every peer sends in trial order, so only a faulty stream
	// completes trials out of order and needs it.
	if !slices.IsSortedFunc(entries, byTrial) {
		slices.SortFunc(entries, byTrial)
	}
	if err := a.writePartial(sess, entries, false); err != nil {
		return a.retryUpstream(sess, err)
	}
	return nil
}

// byTrial orders partial entries by trial.
func byTrial(x, y wire.PartialEntry) int { return cmp.Compare(x.Trial, y.Trial) }

// writePartial encodes entries as one PartialVerdict frame under an
// agg.fold span — whose context rides the frame, parenting the parent
// sink's applypartial span across the connection — and writes it
// upstream.
func (a *Aggregator) writePartial(sess trace.Context, entries []wire.PartialEntry, replay bool) error {
	sp := a.cfg.Trace.Start("agg.fold", sess,
		trace.A("agg", int(a.ID)), trace.A("entries", len(entries)))
	if replay {
		sp.Annotate(trace.A("replay", true))
	}
	ctx := sp.Context()
	pv := &wire.PartialVerdict{Agg: a.ID, Entries: entries}
	buf, err := wire.AppendPartialSession(a.buf[:0], pv, a.cfg.Session,
		wire.TraceContext{Trace: uint64(ctx.Trace), Span: uint64(ctx.Span)})
	if err == nil {
		a.buf = buf
		_, err = a.conn.Write(buf)
	}
	sp.End()
	a.reg.Counter("cluster.partials_sent").Inc()
	return err
}

// failFold records the fold's terminal error and fires the session
// trigger so Serve stops waiting on peers that can no longer matter.
func (a *Aggregator) failFold(err error) {
	a.mu.Lock()
	if a.foldErr == nil {
		a.foldErr = err
	}
	a.mu.Unlock()
	a.fire()
}

// dialUpstream opens (or reopens) the upstream link: connect, write
// AggHello, start the verdict reader.
func (a *Aggregator) dialUpstream(sess trace.Context, deadline time.Duration) error {
	conn, err := a.Dial()
	if err != nil {
		return err
	}
	// Twice the session bound: the upstream link must outlive the session
	// timer by a full budget, because the drain flushes, Done and the
	// verdict wait all happen after that timer may already have fired.
	conn.SetDeadline(time.Now().Add(2 * deadline)) //unifvet:allow wallclock per-attempt I/O safety bound; partial sums are folded state and unaffected
	hello := &wire.AggHello{Agg: a.ID, K: uint32(a.K), Trials: uint32(a.cfg.Trials),
		Lo: uint32(a.Lo), Hi: uint32(a.Hi)}
	buf := wire.AppendSession(a.buf[:0], hello, a.cfg.Session,
		wire.TraceContext{Trace: uint64(sess.Trace), Span: uint64(sess.Span)})
	a.buf = buf
	if _, err := conn.Write(buf); err != nil {
		conn.Close()
		return err
	}
	upDone := make(chan struct{})
	go a.readUpstream(conn, upDone)
	a.mu.Lock()
	a.conn, a.upDone = conn, upDone
	a.mu.Unlock()
	return nil
}

// readUpstream watches the upstream connection for the session verdict.
// The root broadcasts it to every connected peer — child aggregators
// included — when its session ends, so the reader both completes the
// normal handshake and cuts the session short when the root finalized
// first.
func (a *Aggregator) readUpstream(conn net.Conn, done chan struct{}) {
	defer close(done)
	r := wire.NewReader(conn)
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return
		}
		if v, ok := f.(*wire.Verdict); ok {
			a.mu.Lock()
			if !a.haveVerdict {
				a.haveVerdict = true
				a.verdictMsg = *v
			}
			a.mu.Unlock()
			a.fire()
			return
		}
	}
}

// retryUpstream redials the upstream link after the write that failed
// with lastErr and replays the full flushed log in frame-sized chunks.
// The parent's per-(trial, child) dedup makes the replay idempotent:
// entries that made it through before the failure fold exactly once.
func (a *Aggregator) retryUpstream(sess trace.Context, lastErr error) error {
	backoff := a.cfg.Backoff
	for attempt := 0; attempt < a.cfg.Retries; attempt++ {
		a.reg.Counter("agg.upstream_retries").Inc()
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		a.conn.Close()
		if err := a.dialUpstream(sess, a.cfg.deadline()); err != nil {
			lastErr = err
			continue
		}
		if err := a.replay(sess); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("upstream after %d retries: %w", a.cfg.Retries, lastErr)
}

// replay resends every flushed entry on the fresh upstream link.
func (a *Aggregator) replay(sess trace.Context) error {
	for log := a.log[:a.sent]; len(log) > 0; {
		n := min(len(log), wire.MaxPartialEntries)
		if err := a.writePartial(sess, log[:n], true); err != nil {
			return err
		}
		log = log[n:]
	}
	return nil
}

// finishUpstream completes the upstream protocol after the fold loop
// exited: write Done — after a failed write, on the link retryUpstream
// redials — and wait for the verdict the link's reader goroutine
// collects. A session whose verdict already arrived (the root finalized
// first) succeeds regardless of trailing fold errors — the decision is
// fixed, trailing partials are moot.
func (a *Aggregator) finishUpstream(sess trace.Context) (wire.Verdict, error) {
	a.mu.Lock()
	ferr := a.foldErr
	have, v, upDone := a.haveVerdict, a.verdictMsg, a.upDone
	a.mu.Unlock()
	if have {
		return v, nil
	}
	if ferr != nil {
		return wire.Verdict{}, ferr
	}
	if err := a.writeDone(); err != nil {
		if err = a.retryUpstream(sess, err); err == nil {
			err = a.writeDone()
		}
		if err != nil {
			return wire.Verdict{}, fmt.Errorf("upstream done: %w", err)
		}
		a.mu.Lock()
		upDone = a.upDone // the redialed link's reader
		a.mu.Unlock()
	}
	// The reader exits on verdict, upstream close, or the connection
	// deadline — all bounded.
	<-upDone
	a.mu.Lock()
	have, v = a.haveVerdict, a.verdictMsg
	a.mu.Unlock()
	if !have {
		return wire.Verdict{}, fmt.Errorf("upstream closed without a verdict")
	}
	return v, nil
}

// writeDone writes the aggregator's Done marker upstream.
func (a *Aggregator) writeDone() error {
	buf := wire.AppendSession(a.buf[:0], &wire.Done{Node: a.ID}, a.cfg.Session, wire.TraceContext{})
	a.buf = buf
	_, err := a.conn.Write(buf)
	return err
}
