package cluster

import (
	"fmt"
	"io"
	"net"
	"time"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/obs/trace"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/tester"
	"github.com/unifdist/unifdist/internal/wire"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// NodeClient is one network node speaking the cluster protocol: it draws
// its sample block for every trial from the indexed randomness contract
// (zeroround.VoteStream), runs its local tester, and submits the resulting
// votes to the referee, retrying on a fresh connection after transport
// errors.
type NodeClient struct {
	// ID is this node's index in [0, K); K the network size. Both are
	// echoed in the Hello handshake and validated by the referee.
	ID int
	K  int
	// Tester is the node's local tester (zeroround.(*Network).Node(ID)).
	Tester tester.Tester
	// Config carries the session parameters; it must match the referee's.
	Config Config
	// Dial opens a fresh connection to the referee.
	Dial func() (net.Conn, error)
	// Faults, when non-nil and active, injects transport faults into this
	// node's votes; see FaultPlan.
	Faults *FaultPlan
}

// Run computes the node's votes for every trial and submits them,
// returning the referee's verdict broadcast. Votes are computed once, up
// front — retries resubmit identical frames, so transport faults can
// lose or duplicate votes but never change them. A session the referee
// closed before sending a verdict returns an error.
func (nc *NodeClient) Run(d dist.Distribution) (wire.Verdict, error) {
	cfg := nc.Config
	if cfg.Trials <= 0 {
		return wire.Verdict{}, fmt.Errorf("cluster: node %d: Trials must be > 0, got %d", nc.ID, cfg.Trials)
	}

	sess := cfg.Trace.Start("node.session", trace.Context{}, trace.A("node", nc.ID))
	defer sess.End()

	votes := nc.computeVotes(d, sess.Context())

	backoff := cfg.Backoff
	var lastErr error
	for attempt := 0; attempt <= cfg.Retries; attempt++ {
		if attempt > 0 {
			nc.Config.Obs.Counter("cluster.node_retries").Inc()
			if backoff > 0 {
				time.Sleep(backoff)
				backoff *= 2
			}
		}
		v, err := nc.submit(votes, sess.Context(), attempt)
		if err == nil {
			return v, nil
		}
		lastErr = err
	}
	return wire.Verdict{}, fmt.Errorf("cluster: node %d: %w", nc.ID, lastErr)
}

// outVote is one precomputed vote plus the trace position of the sample
// computation that produced it (zero when tracing is off).
type outVote struct {
	vote   wire.BatchVote
	parent trace.Context
}

// computeVotes runs the node's tester for every trial. The sample stream
// of trial t is fixed by (BaseSeed, t, ID) alone, and a vote is VoteAt's
// reseed and tester.Voter call, so the votes are a pure function of the
// configuration — independent of scheduling, attempts, or the other nodes
// — and equal RunAt's votes.
func (nc *NodeClient) computeVotes(d dist.Distribution, sess trace.Context) []outVote {
	g := rng.New(0)
	block := make([]int, nc.Tester.SampleSize())
	var col dist.CollisionScratch
	vote := tester.NewVoter(nc.Tester)
	tr := nc.Config.Trace

	votes := make([]outVote, nc.Config.Trials)
	for t := range votes {
		// The sample span's ID is derived from (trace, trial, node), so a
		// rerun of the same configuration yields the same span graph.
		sp := tr.StartID("node.sample",
			trace.Derive("node.sample", uint64(tr.Trace()), uint64(t), uint64(nc.ID)),
			sess, trace.A("trial", t))
		zeroround.VoteStream(g, nc.Config.BaseSeed, uint64(t), nc.ID, nc.K)
		v := wire.BatchVote{Trial: uint32(t), Node: uint32(nc.ID), Reject: vote.Vote(d, g, block, &col)}
		sp.End()
		votes[t] = outVote{vote: v, parent: sp.Context()}
	}
	return votes
}

// submit performs one connection attempt: handshake, vote stream, Done,
// then blocks for the referee's verdict. Every frame goes to the
// connection as soon as it is encoded. The fault plan draws once per
// vote (FaultPlan.decide), so a (Seed, rates) plan realizes the same
// delivered-vote multiset on both submission shapes: drops skip the vote,
// dups deliver it twice (the referee dedups), and a disconnect first
// writes the pending batch — the votes before it are on the wire, as
// they are when each vote has its own frame — then kills the link.
func (nc *NodeClient) submit(votes []outVote, sess trace.Context, attempt int) (wire.Verdict, error) {
	cfg := nc.Config
	conn, err := nc.Dial()
	if err != nil {
		return wire.Verdict{}, fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	// Per-attempt I/O bound: if the referee stalls, the attempt fails here
	// and the retry path takes over rather than hanging the node forever.
	conn.SetDeadline(time.Now().Add(cfg.deadline())) //unifvet:allow wallclock per-attempt I/O safety bound; votes are precomputed and unaffected

	out := &frameWriter{w: conn, session: cfg.Session}
	var dropped *obs.Counter
	if cfg.Obs != nil {
		out.sent = cfg.Obs.Counter(fmt.Sprintf("cluster.peer.%d.sent", nc.ID))
		dropped = cfg.Obs.Counter(fmt.Sprintf("cluster.peer.%d.dropped", nc.ID))
	}
	var bt *batcher
	if cfg.batchSize() > 0 {
		bt = newBatcher(out, cfg, sess)
	}
	var g *rng.RNG
	if nc.Faults.Active() {
		g = rng.At(nc.Faults.Seed, linkID(nc.ID, attempt))
	}

	hello := &wire.Hello{Node: uint32(nc.ID), K: uint32(nc.K), Trials: uint32(cfg.Trials)}
	if err := out.frame(hello, wire.TraceContext{}); err != nil {
		return wire.Verdict{}, fmt.Errorf("hello: %w", err)
	}
	for i := range votes {
		copies := 1
		if g != nil {
			switch nc.Faults.decide(g, cfg.Obs) {
			case faultDisconnect:
				if bt != nil {
					_ = bt.flush() // the attempt fails either way
				}
				conn.Close()
				return wire.Verdict{}, fmt.Errorf("vote: link disconnected by fault plan")
			case faultDrop:
				dropped.Inc()
				continue
			case faultDup:
				copies = 2
			}
		}
		if err := nc.deliver(out, bt, &votes[i], copies, attempt); err != nil {
			return wire.Verdict{}, fmt.Errorf("vote: %w", err)
		}
	}
	if bt != nil {
		if err := bt.flush(); err != nil {
			return wire.Verdict{}, err
		}
	}
	if err := out.frame(&wire.Done{Node: uint32(nc.ID)}, wire.TraceContext{}); err != nil {
		return wire.Verdict{}, fmt.Errorf("done: %w", err)
	}

	r := wire.NewReader(conn)
	f, err := r.ReadFrame()
	if err != nil {
		return wire.Verdict{}, fmt.Errorf("verdict: %w", err)
	}
	v, ok := f.(*wire.Verdict)
	if !ok {
		return wire.Verdict{}, fmt.Errorf("verdict: unexpected frame type %d", f.Type())
	}
	return *v, nil
}

// deliver turns one delivered vote into bytes, copies times. Batched, each
// copy is an entry in the pending VoteBatch. Otherwise the vote is its own
// Vote frame, written copies times under one node.send span
// parented on the vote's sample span; the span's ID rides the frame as its
// wire trace context, so the referee's apply span can parent on it across
// the connection.
func (nc *NodeClient) deliver(out *frameWriter, bt *batcher, ov *outVote, copies, attempt int) error {
	if bt != nil {
		for ; copies > 0; copies-- {
			if err := bt.add(ov.vote); err != nil {
				return err
			}
		}
		return nil
	}
	v := &ov.vote
	out.vote = wire.Vote{Trial: v.Trial, Node: v.Node, Reject: v.Reject}
	sp := nc.Config.Trace.Start("node.send", ov.parent, trace.A("attempt", attempt))
	ctx := sp.Context()
	tc := wire.TraceContext{Trace: uint64(ctx.Trace), Span: uint64(ctx.Span)}
	var err error
	for ; copies > 0 && err == nil; copies-- {
		err = out.frame(&out.vote, tc)
	}
	sp.End()
	return err
}

// frameWriter writes one connection attempt's frames: each is encoded
// bound to the session into one reused buffer, written at once, and
// counted in cluster.peer.<id>.sent. A per-frame node's Vote frames reuse
// its one vote, so sending a vote allocates nothing.
type frameWriter struct {
	w       io.Writer
	session uint32
	buf     []byte
	vote    wire.Vote
	sent    *obs.Counter
}

// frame encodes f carrying tc and writes it.
func (out *frameWriter) frame(f wire.Frame, tc wire.TraceContext) error {
	buf := wire.AppendSession(out.buf[:0], f, out.session, tc)
	out.buf = buf
	out.sent.Inc()
	_, err := out.w.Write(buf)
	return err
}

// batcher coalesces a node's votes into VoteBatch frames, writing each
// when it holds maxVotes votes or at a protocol point (disconnect, Done).
// There is no time-based flush: the deterministic path never consults a
// clock. The count cap alone keeps every frame under
// wire.MaxBatchFrameBytes: at most wire.MaxBatchVotes votes of at most
// 11 bytes each.
type batcher struct {
	out      *frameWriter
	batch    wire.VoteBatch
	maxVotes int

	tr   *trace.Tracer
	sess trace.Context
}

// newBatcher sizes a batcher from the session config. Its send spans
// parent on sess, the node's session span.
func newBatcher(out *frameWriter, cfg Config, sess trace.Context) *batcher {
	return &batcher{
		out:      out,
		maxVotes: cfg.batchSize(),
		tr:       cfg.Trace,
		sess:     sess,
	}
}

// add appends one vote, flushing when the batch is full.
func (b *batcher) add(v wire.BatchVote) error {
	b.batch.Votes = append(b.batch.Votes, v)
	if len(b.batch.Votes) >= b.maxVotes {
		return b.flush()
	}
	return nil
}

// flush encodes and writes the pending batch (no-op when empty). The
// batch send span's context rides the frame, so the referee's apply spans
// parent on it across the connection.
func (b *batcher) flush() error {
	n := len(b.batch.Votes)
	if n == 0 {
		return nil
	}
	sp := b.tr.Start("node.sendbatch", b.sess, trace.A("votes", n))
	ctx := sp.Context()
	buf, err := wire.BatchEncoder{}.AppendSession(b.out.buf[:0], &b.batch, b.out.session,
		wire.TraceContext{Trace: uint64(ctx.Trace), Span: uint64(ctx.Span)}, false)
	if err == nil {
		b.out.buf = buf
		b.out.sent.Inc()
		_, err = b.out.w.Write(buf)
	}
	sp.End()
	b.batch.Votes = b.batch.Votes[:0]
	if err != nil {
		return fmt.Errorf("batch flush: %w", err)
	}
	return nil
}
