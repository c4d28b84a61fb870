package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"

	"github.com/unifdist/unifdist/internal/obs/trace"
	"github.com/unifdist/unifdist/internal/wire"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// Referee is the decision service of a cluster session: it accepts node
// connections, validates and deduplicates their votes, applies the
// decision rule incrementally as votes arrive — reusing the rule's
// EarlyDecider so a trial's verdict is fixed at the earliest possible
// vote — and finalizes undecided trials through the quorum fallback when
// the session ends. The vote-folding half (registration, frame
// validation, dedup, per-trial fold) is the voteSink shared with the
// Aggregator, fed by the Ingest; the referee layers the rule on top in
// advance, which the sink's fold calls. Besides raw
// leaf connections, the sink also terminates aggregator children (AggHello
// + PartialVerdict partial sums), which fold into the same per-trial
// tallies — both decision rules are commutative monoids over (votes,
// rejects), so the merged sums decide exactly as the flat star would.
//
// A session ends on the first of: every node sent Done, or the
// safety-net deadline expired. At that point the referee broadcasts a
// wire.Verdict summary to every connected node and closes the transport.
type Referee struct {
	voteSink
	rule zeroround.Rule
	// early is rule as a zeroround.EarlyDecider, or nil; resolved once.
	early zeroround.EarlyDecider

	// Decision state, guarded by the sink mutex (advance runs under it).
	missing []int
	decided []bool
	verdict []bool
	early_  []bool // trial fixed by EarlyDecider before all votes
}

// NewReferee builds a referee for a k-node network deciding with rule.
func NewReferee(k int, rule zeroround.Rule, cfg Config) *Referee {
	rf := &Referee{
		rule:    rule,
		missing: make([]int, cfg.Trials),
		decided: make([]bool, cfg.Trials),
		verdict: make([]bool, cfg.Trials),
		early_:  make([]bool, cfg.Trials),
	}
	rf.voteSink.init(k, 0, k, cfg, "cluster", "referee")
	rf.referee = rf
	if ed, ok := rule.(zeroround.EarlyDecider); ok {
		rf.early = ed
	}
	return rf
}

// Serve runs one session on l and returns the referee's report. It always
// closes l.
func (rf *Referee) Serve(l net.Listener) (*Report, error) {
	if rf.cfg.Trials <= 0 {
		l.Close()
		return nil, fmt.Errorf("cluster: referee needs Trials > 0, got %d", rf.cfg.Trials)
	}
	sess := rf.cfg.Trace.Start("referee.session", trace.Context{},
		trace.A("k", rf.k), trace.A("trials", rf.cfg.Trials))
	rf.reg.Gauge("cluster.sessions_open").Add(1)
	defer rf.reg.Gauge("cluster.sessions_open").Add(-1)

	ing := rf.host(l)

	vspan := rf.cfg.Trace.Start("referee.verdict", sess.Context())
	rep, sum, conns := rf.finalize()
	vspan.Annotate(trace.A("accepts", rep.Accepts), trace.A("missing", rep.MissingVotes),
		trace.A("quorum_trials", rep.QuorumTrials))
	vspan.End()
	sess.End()
	Broadcast(conns, &sum)
	ing.Close()
	rf.m.peersIdle.Set(0) // the broadcast released every idle peer
	return rep, nil
}

// advance runs the incremental decision for trials t0 … t0+n−1; the
// sink invokes it under its mutex on the trials every fold touched — a
// run batch, a direct vote or a partial-sum entry — so EarlyDecider
// short-circuiting fires from partial counts exactly as it does from raw
// votes. Each trial of a range gained exactly one vote, so deciding them
// in one pass decides each as a call per vote would.
func (rf *Referee) advance(t0, n int) {
	decided, votes := rf.decided[t0:t0+n], rf.votes[t0:t0+n]
	for i := range decided {
		if decided[i] {
			continue
		}
		t := t0 + i
		switch {
		case votes[i] == rf.k:
			rf.settle(t, rf.rule.Accept(rf.rejects[t], rf.k), false)
		case rf.early != nil:
			if accept, done := rf.early.Decided(rf.rejects[t], rf.k-votes[i]); done {
				rf.settle(t, accept, true)
			}
		}
	}
}

// settle fixes a trial's verdict; callers hold the sink mutex.
func (rf *Referee) settle(trial int, accept, early bool) {
	rf.decided[trial] = true
	rf.verdict[trial] = accept
	rf.early_[trial] = early
}

// finalize decides the remaining trials via the quorum fallback and
// assembles the report, the verdict broadcast frame, and the connections
// to flush it to.
func (rf *Referee) finalize() (*Report, wire.Verdict, []net.Conn) {
	conns := rf.shut()
	rf.mu.Lock()
	defer rf.mu.Unlock()

	rep := &Report{
		K:        rf.k,
		Trials:   rf.cfg.Trials,
		Verdicts: make([]bool, rf.cfg.Trials),
		Rejects:  append([]int(nil), rf.rejects...),
		Votes:    append([]int(nil), rf.votes...),
		Missing:  make([]int, rf.cfg.Trials),
	}
	for t := 0; t < rf.cfg.Trials; t++ {
		if !rf.decided[t] {
			// Quorum fallback: decide from the votes that arrived; the
			// absent votes count as accepts.
			rf.verdict[t] = rf.rule.Accept(rf.rejects[t], rf.k)
			rf.decided[t] = true
			rf.missing[t] = rf.k - rf.votes[t]
			rep.QuorumTrials++
		}
		if rf.early_[t] {
			rep.EarlyTrials++
		}
		rep.Verdicts[t] = rf.verdict[t]
		rep.Missing[t] = rf.missing[t]
		rep.MissingVotes += rf.missing[t]
		if rf.verdict[t] {
			rep.Accepts++
		}
	}
	rf.stats.IdlePeers = rf.doneCount
	rep.Stats = rf.stats
	rf.reg.Counter("cluster.votes_missing").Add(int64(rep.MissingVotes))

	sum := wire.Verdict{
		Trials:  uint32(rep.Trials),
		Accepts: uint32(rep.Accepts),
		Missing: uint32(rep.MissingVotes),
	}
	return rep, sum, conns
}

// isClosedErr reports whether err is an orderly end of stream rather than
// a protocol violation: EOF, a closed/reset transport, or a deadline.
func isClosedErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	s := err.Error()
	for _, sub := range []string{"closed pipe", "use of closed network connection", "connection reset", "broken pipe"} {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}
