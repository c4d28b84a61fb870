package service

import (
	"net"
	"sync"
	"time"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/wire"
)

// session is one admitted testing session: an isolated referee plus the
// multiplexer state around it. Identity fields are immutable after
// admission; finish is serialized by finishOnce.
type session struct {
	id     uint32 // service-assigned, nonzero, unique among open sessions
	slot   int    // metric-label slot in [0, MaxSessions)
	tenant uint32
	cost   int // k×trials charged against the tenant budget

	rf      *cluster.Referee
	ctrl    net.Conn    // the opener's control connection; receives the SessionReport
	timer   *time.Timer // the session deadline; guarded by Service.mu
	journal *obs.Journal

	finishOnce sync.Once
}

// reportFrame converts a referee report into the wire SessionReport.
// Transport statistics are deliberately not carried: the wire report is
// the transport-independent outcome.
func reportFrame(id uint32, rep *cluster.Report) *wire.SessionReport {
	sr := &wire.SessionReport{
		Session:  id,
		K:        uint32(rep.K),
		Verdicts: rep.Verdicts,
		Rejects:  make([]uint32, rep.Trials),
		Votes:    make([]uint32, rep.Trials),
		Missing:  make([]uint32, rep.Trials),
	}
	for t := 0; t < rep.Trials; t++ {
		sr.Rejects[t] = uint32(rep.Rejects[t])
		sr.Votes[t] = uint32(rep.Votes[t])
		sr.Missing[t] = uint32(rep.Missing[t])
	}
	return sr
}

// reportFromWire reconstructs the client-side cluster.Report from a
// SessionReport: the per-trial columns verbatim, the aggregates recomputed
// from them. Stats stay zero — the wire report intentionally carries no
// transport accounting — and QuorumTrials is recovered as the trials with
// missing votes. EarlyTrials is not recoverable (an early-decided trial
// with all votes present is indistinguishable from a fully-voted one) and
// stays zero; byte-level comparisons against direct runs zero both sides.
func reportFromWire(sr *wire.SessionReport) *cluster.Report {
	trials := len(sr.Verdicts)
	rep := &cluster.Report{
		K:        int(sr.K),
		Trials:   trials,
		Verdicts: sr.Verdicts,
		Rejects:  make([]int, trials),
		Votes:    make([]int, trials),
		Missing:  make([]int, trials),
	}
	for t := 0; t < trials; t++ {
		rep.Rejects[t] = int(sr.Rejects[t])
		rep.Votes[t] = int(sr.Votes[t])
		rep.Missing[t] = int(sr.Missing[t])
		if rep.Verdicts[t] {
			rep.Accepts++
		}
		if rep.Missing[t] > 0 {
			rep.MissingVotes += rep.Missing[t]
			rep.QuorumTrials++
		}
	}
	return rep
}
