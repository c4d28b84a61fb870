package cluster

import (
	"time"

	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/rng"
)

// FaultPlan is a seeded description of transport misbehavior. Faults are
// injected per vote on each node→referee link: every vote a node sends,
// in its own frame or in a VoteBatch, draws once from the link's private
// generator and is then dropped, duplicated, preceded by a delay, or
// replaced by a hard disconnect according to the configured rates.
// Control frames (Hello, Done, Verdict) are delivered whenever the link is
// up, so a lossy-but-alive link models "votes may be lost", not "TCP is
// broken".
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
	// Drop is the probability a vote is silently discarded.
	Drop float64
	// Dup is the probability a vote is transmitted twice (the
	// referee deduplicates by (trial, node)).
	Dup float64
	// Disconnect is the probability that, instead of sending a given vote,
	// the node hard-closes the link and falls back to its retry/backoff
	// path on a fresh connection.
	Disconnect float64
	// Delay, when positive, sleeps a uniform duration in [0, Delay) before
	// each vote send. Delay perturbs timing only, never verdicts.
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

// decide draws the fault outcome for the next vote from g: an optional
// delay draw (when Delay > 0, with the sleep applied here), then one
// uniform draw against the cumulative disconnect/drop/dup thresholds.
// NodeClient's vote loop draws once per vote whatever the submission
// shape, so a (Seed, rates) plan realizes the identical per-vote fault
// pattern regardless of how votes are packed into frames.
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
