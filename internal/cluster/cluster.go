// Package cluster executes the paper's 0-round testers over real
// connections instead of the in-process simulator: k node clients each
// draw their sample block, vote, and push the vote over a length-prefixed
// wire protocol (internal/wire) to a referee service that applies the
// network decision rule incrementally as votes arrive.
//
// The runtime is the client/server form of zeroround.Network. The two are
// tied together by the indexed randomness contract zeroround.VoteStream:
// node i's samples for trial t are a pure function of (base seed, t, i),
// so a cluster run — any connection ordering, any scheduling, any
// retransmission — produces trial-for-trial the same votes as the
// reference execution zeroround.(*Network).RunAt. Differential tests pin
// that equivalence exactly.
//
// Unlike the simulator, the transport can misbehave: a seeded FaultPlan
// drops, duplicates, delays or disconnects votes deterministically,
// and the referee degrades gracefully — its quorum fallback decides each
// trial from the votes that arrived, recording how many went missing. This
// expresses a robustness property the simulator cannot: the measured
// network error stays within the paper's 1/3 under bounded vote loss.
//
// Topology: Referee serves any net.Listener (TCP for real deployments);
// NewPipeListener provides a zero-copy in-memory transport (net.Pipe) for
// single-process clusters and tests. RunPipe/RunTCP assemble the full
// referee-plus-k-nodes session either way, as the depth-0 case of the
// aggregation tree RunTreePipe/RunTreeTCP build.
package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/obs/trace"
	"github.com/unifdist/unifdist/internal/wire"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// DefaultDeadline bounds a session when peers stall; see Config.Deadline.
const DefaultDeadline = 10 * time.Second

// Config holds the session parameters shared by the referee and every
// node client.
type Config struct {
	// Trials is the number of Monte-Carlo trials voted on in this session.
	Trials int
	// BaseSeed fixes the indexed randomness of every (trial, node) sample
	// stream (zeroround.VoteStream) and thereby the entire run.
	BaseSeed uint64
	// Deadline bounds the whole session at the referee and each node
	// client I/O attempt; 0 means DefaultDeadline. It is a safety net
	// against stalled peers — fault-free runs finish on protocol events
	// (all votes in, or all nodes done), never on the clock.
	Deadline time.Duration
	// Retries is how many times a node client redials and resubmits after
	// a transport error; Backoff is the sleep before the first retry
	// (doubling each attempt).
	Retries int
	Backoff time.Duration
	// Obs, when non-nil, receives connection/vote/fault metrics. Nil
	// disables telemetry.
	Obs *obs.Registry
	// Batch, when ≥ 2, switches node clients to the high-throughput path:
	// up to Batch votes are coalesced into each wire.VoteBatch frame
	// (clamped to wire.MaxBatchVotes). 0 or 1 keeps one frame per vote.
	// A batch is written when it is full and at the protocol points
	// (disconnect, Done) — never on a wall-clock timer — so the batched
	// path stays deterministic. Batching never changes verdicts: the
	// referee applies batched votes through the same dedup/rule/quorum
	// pipeline, and differential tests pin batched runs trial-for-trial
	// identical to unbatched ones.
	Batch int
	// FlushBytes is ignored; it remains so existing callers keep
	// compiling.
	FlushBytes int
	// Session binds every frame this configuration sends — and every frame
	// its referee accepts — to a session ID, carried in each frame's
	// session field. 0, the default, means unbound, which only a solo run
	// (RunPipe, RunTCP and the trees) serves. The multi-tenant service
	// (internal/cluster/service) assigns nonzero IDs so many concurrent
	// sessions share one transport endpoint, and drops a peer whose frames
	// carry session 0; the referee rejects frames whose session does not
	// match as bad frames.
	Session uint32
	// MetricSuffix, when non-empty, is appended verbatim to every sink
	// metric name (e.g. ";session=3"), which the Prometheus exporter
	// (internal/obs/export) renders as labels. The service sets it per
	// session slot so each slot gets its own labeled series under a
	// cardinality bounded by the session quota.
	MetricSuffix string
	// Trace, when non-nil, emits causally-linked spans for the session
	// (node sample → frame send → referee apply → verdict) into the
	// tracer's journal and stamps vote frames with a wire trace context
	// (codec version 2). Tracing is observability only: verdicts, vote
	// payloads and decision flow are unchanged — only the vote frame
	// encoding grows by the 16-byte context, which shows up in the byte
	// accounting but never in a verdict.
	Trace *trace.Tracer
}

// deadline resolves the configured deadline.
func (c Config) deadline() time.Duration {
	if c.Deadline <= 0 {
		return DefaultDeadline
	}
	return c.Deadline
}

// batchSize resolves the effective batch size: 0 when batching is off
// (Batch < 2), otherwise Batch clamped to the wire cap.
func (c Config) batchSize() int {
	if c.Batch < 2 {
		return 0
	}
	if c.Batch > wire.MaxBatchVotes {
		return wire.MaxBatchVotes
	}
	return c.Batch
}

// Report is the referee's account of one session.
type Report struct {
	// K and Trials echo the session shape.
	K      int `json:"k"`
	Trials int `json:"trials"`
	// Verdicts[t] is trial t's network verdict (true = accept); Rejects[t]
	// the rejecting votes observed; Votes[t] the votes that arrived;
	// Missing[t] the votes a quorum decision had to do without (0 for
	// trials decided on full or early-decided information).
	Verdicts []bool `json:"verdicts"`
	Rejects  []int  `json:"rejects"`
	Votes    []int  `json:"votes"`
	Missing  []int  `json:"missing"`
	// Accepts counts accepting trials; MissingVotes sums Missing.
	Accepts      int `json:"accepts"`
	MissingVotes int `json:"missing_votes"`
	// QuorumTrials counts trials decided by the quorum fallback;
	// EarlyTrials counts trials fixed by the rule's EarlyDecider before
	// all their votes arrived.
	QuorumTrials int `json:"quorum_trials"`
	EarlyTrials  int `json:"early_trials"`
	// Stats aggregates transport-level accounting.
	Stats RefereeStats `json:"stats"`
}

// ErrorRate returns the fraction of trials whose verdict differs from
// wantAccept. On a clean session it equals zeroround's EstimateErrorAt at
// the session's base seed and trial count: the paper tables estimate over
// the same (trial, node) streams the nodes vote from.
func (r *Report) ErrorRate(wantAccept bool) float64 {
	if r.Trials == 0 {
		return 0
	}
	wrong := 0
	for _, a := range r.Verdicts {
		if a != wantAccept {
			wrong++
		}
	}
	return float64(wrong) / float64(r.Trials)
}

// WriteTrials writes one cluster_trial line per trial to j.
func (r *Report) WriteTrials(j *obs.Journal) {
	for t := 0; t < r.Trials; t++ {
		j.Write(trialLine{Kind: "cluster_trial", Trial: t, Accept: r.Verdicts[t],
			Rejects: r.Rejects[t], Votes: r.Votes[t], Missing: r.Missing[t]})
	}
}

// trialLine is the journal record of one decided trial.
type trialLine struct {
	Kind    string `json:"kind"`
	Trial   int    `json:"trial"`
	Accept  bool   `json:"accept"`
	Rejects int    `json:"rejects"`
	Votes   int    `json:"votes"`
	Missing int    `json:"missing"`
}

// RefereeStats is the transport-level accounting of one session.
type RefereeStats struct {
	// Connections counts accepted connections (retries reconnect, so this
	// can exceed k); Frames and Bytes count everything received.
	Connections int   `json:"connections"`
	Frames      int   `json:"frames"`
	Bytes       int64 `json:"bytes"`
	// Votes counts distinct (trial, node) votes recorded; DuplicateVotes
	// the deduplicated resubmissions; BadFrames the frames rejected by
	// validation (range, identity or codec errors).
	Votes          int `json:"votes"`
	DuplicateVotes int `json:"duplicate_votes"`
	BadFrames      int `json:"bad_frames"`
	// BatchFrames counts VoteBatch frames received and BatchedVotes the
	// votes they carried.
	BatchFrames  int `json:"batch_frames,omitempty"`
	BatchedVotes int `json:"batched_votes,omitempty"`
	// PartialFrames counts PartialVerdict frames folded and PartialVotes
	// the votes they carried (also counted in Votes); DuplicatePartials
	// the (trial, child) entries deduplicated as retransmissions. All zero
	// in flat-star sessions.
	PartialFrames     int `json:"partial_frames,omitempty"`
	PartialVotes      int `json:"partial_votes,omitempty"`
	DuplicatePartials int `json:"duplicate_partials,omitempty"`
	// IdlePeers counts nodes that had finished their stream (Done) and
	// were idling on the verdict when the session finalized — protocol
	// state, not wall-clock idleness.
	IdlePeers int `json:"idle_peers,omitempty"`
	// DeadlineExpired reports the safety-net deadline fired before every
	// node was done.
	DeadlineExpired bool `json:"deadline_expired,omitempty"`
}

// RunPipe executes one full session in-process over net.Pipe transports:
// a referee for nw's rule plus one node client per network node, faults
// injected per plan (nil plan = clean links) — the depth-0 aggregation
// tree. It returns the referee's report and, when a node failed, the
// lowest-numbered failing node's error.
func RunPipe(cfg Config, nw *zeroround.Network, d dist.Distribution, plan *FaultPlan) (*Report, error) {
	return runTree(cfg, nw, d, plan, 0, 0, listenPipe)
}

// RunTCP is RunPipe over a real TCP loopback listener.
func RunTCP(cfg Config, nw *zeroround.Network, d dist.Distribution, plan *FaultPlan) (*Report, error) {
	return runTree(cfg, nw, d, plan, 0, 0, listenTCP)
}

// listenPipe opens one in-memory server listener and the dial function
// its clients use.
func listenPipe() (net.Listener, func() (net.Conn, error), error) {
	l := NewPipeListener()
	return l, l.Dial, nil
}

// listenTCP is listenPipe on a TCP loopback port.
func listenTCP() (net.Listener, func() (net.Conn, error), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: listen: %w", err)
	}
	addr := l.Addr().String()
	return l, func() (net.Conn, error) { return net.Dial("tcp", addr) }, nil
}

// pipeListener hands out net.Pipe pairs through the net.Listener
// interface, so the referee serves in-memory transports exactly as it
// serves TCP.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

// NewPipeListener returns an in-memory listener whose Dial returns the
// client half of a fresh net.Pipe.
func NewPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// Accept returns the server half of the next dialed pipe.
func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close stops the listener; pending and future Dials fail.
func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr implements net.Listener.
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// Dial creates a pipe and delivers the server half to Accept.
func (l *pipeListener) Dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
