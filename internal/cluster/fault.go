package cluster

import (
	"fmt"
	"net"
	"time"

	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/wire"
)

// FaultPlan is a seeded description of transport misbehavior. Faults are
// injected at the frame layer of each node→referee link: every vote (or
// sketch) frame a node sends draws once from the link's private generator
// and is then dropped, duplicated, preceded by a delay, or replaced by a
// hard disconnect according to the configured rates. Control frames
// (Hello, Done, Verdict) are delivered whenever the link is up, so a
// lossy-but-alive link models "votes may be lost", not "TCP is broken".
//
// Each link's generator is derived as rng.At(Seed, linkID) where linkID
// encodes (node, attempt) — so a run's fault pattern is a pure function of
// (Seed, rates), reproducible across executions and independent of
// scheduling. With Delay == 0 the realized verdicts of a drop/dup plan are
// fully deterministic, which is what lets the fault-injection tests assert
// exact error rates.
type FaultPlan struct {
	// Seed derives every link's fault stream.
	Seed uint64
	// Drop is the probability a vote frame is silently discarded.
	Drop float64
	// Dup is the probability a vote frame is transmitted twice (the
	// referee deduplicates by (trial, node)).
	Dup float64
	// Disconnect is the probability that, instead of sending a given vote
	// frame, the link hard-closes — the node client sees the write error
	// and falls back to its retry/backoff path on a fresh connection.
	Disconnect float64
	// Delay, when positive, sleeps a uniform duration in [0, Delay) before
	// each vote frame send. Delay perturbs timing only, never verdicts.
	Delay time.Duration
}

// Active reports whether the plan injects any fault at all; a nil plan is
// inactive.
func (p *FaultPlan) Active() bool {
	return p != nil && (p.Drop > 0 || p.Dup > 0 || p.Disconnect > 0 || p.Delay > 0)
}

// linkID names the fault stream of one node's attempt-th connection.
func linkID(node, attempt int) uint64 {
	return uint64(node)<<16 | uint64(attempt&0xffff)
}

// faultAction is the outcome of one per-vote fault draw.
type faultAction int

const (
	faultDeliver faultAction = iota
	faultDrop
	faultDup
	faultDisconnect
)

// decide draws the fault outcome for the next vote from g, consuming
// exactly the stream sendVote historically consumed: an optional delay
// draw (when Delay > 0, with the sleep applied here), then one uniform
// draw against the cumulative disconnect/drop/dup thresholds. The batched
// and per-frame send paths both route through decide, so a (Seed, rates)
// plan realizes the identical per-vote fault pattern regardless of how
// votes are packed into frames.
func (p *FaultPlan) decide(g *rng.RNG, reg *obs.Registry) faultAction {
	if p.Delay > 0 {
		d := time.Duration(g.Float64() * float64(p.Delay))
		reg.Counter("cluster.faults_delayed").Inc()
		time.Sleep(d)
	}
	x := g.Float64()
	switch {
	case x < p.Disconnect:
		reg.Counter("cluster.faults_disconnect").Inc()
		return faultDisconnect
	case x < p.Disconnect+p.Drop:
		reg.Counter("cluster.faults_dropped").Inc()
		return faultDrop
	case x < p.Disconnect+p.Drop+p.Dup:
		reg.Counter("cluster.faults_dup").Inc()
		return faultDup
	default:
		return faultDeliver
	}
}

// link is one node→referee connection with the fault plan applied to its
// vote frames. Control frames bypass injection. Every frame the link
// writes is bound to sess (0 = unbound).
type link struct {
	conn net.Conn
	plan *FaultPlan
	g    *rng.RNG // nil when the plan is inactive
	reg  *obs.Registry
	sess uint32
	// Per-peer live counters (nil no-ops when telemetry is disabled).
	sent    *obs.Counter
	dropped *obs.Counter
}

// newLink wraps conn for node's attempt-th connection under plan.
func newLink(conn net.Conn, plan *FaultPlan, node, attempt int, reg *obs.Registry, sess uint32) *link {
	l := &link{conn: conn, plan: plan, reg: reg, sess: sess}
	if plan.Active() {
		l.g = rng.At(plan.Seed, linkID(node, attempt))
	}
	if reg != nil {
		l.sent = reg.Counter(fmt.Sprintf("cluster.peer.%d.sent", node))
		l.dropped = reg.Counter(fmt.Sprintf("cluster.peer.%d.dropped", node))
	}
	return l
}

// sendControl writes a control frame with no fault injection.
func (l *link) sendControl(f wire.Frame) error {
	l.sent.Inc()
	return wire.WriteFrameSession(l.conn, f, l.sess, wire.TraceContext{})
}

// sendVote writes one vote/sketch frame through the fault plan, stamping
// the trace context when one is attached. A dropped frame returns nil (the
// loss is silent, as on a real lossy link); a disconnect closes the
// connection and returns the resulting write error.
func (l *link) sendVote(f wire.Frame, tc wire.TraceContext) error {
	if l.g == nil {
		l.sent.Inc()
		return wire.WriteFrameSession(l.conn, f, l.sess, tc)
	}
	switch l.plan.decide(l.g, l.reg) {
	case faultDisconnect:
		l.conn.Close()
		return wire.WriteFrameSession(l.conn, f, l.sess, tc) // surfaces the closed-link error
	case faultDrop:
		l.dropped.Inc()
		return nil
	case faultDup:
		if err := wire.WriteFrameSession(l.conn, f, l.sess, tc); err != nil {
			return err
		}
		l.sent.Add(2)
		return wire.WriteFrameSession(l.conn, f, l.sess, tc)
	default:
		l.sent.Inc()
		return wire.WriteFrameSession(l.conn, f, l.sess, tc)
	}
}
