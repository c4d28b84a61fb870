package congest

import (
	"fmt"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/simnet"
)

// AggregateOp is a commutative, associative reduction over node values.
type AggregateOp int

const (
	// AggSum adds the values.
	AggSum AggregateOp = iota + 1
	// AggMin takes the minimum.
	AggMin
	// AggMax takes the maximum.
	AggMax
)

// String implements fmt.Stringer.
func (op AggregateOp) String() string {
	switch op {
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("AggregateOp(%d)", int(op))
	}
}

func (op AggregateOp) apply(a, b uint64) uint64 {
	switch op {
	case AggSum:
		return a + b
	case AggMin:
		if b < a {
			return b
		}
		return a
	case AggMax:
		if b > a {
			return b
		}
		return a
	default:
		return a
	}
}

// AggregateResult reports a distributed reduction.
type AggregateResult struct {
	// Value is the network-wide reduction, known to every node on return.
	Value uint64
	// Root is the elected leader.
	Root int
	// Stats is the simulator accounting; rounds are O(D).
	Stats simnet.Stats
}

// Aggregate computes a global reduction (sum, min or max) of per-node
// values in O(D) CONGEST rounds, using the same leader-election + echo
// substrate as the uniformity protocol: values ride up the completion
// echoes and the root broadcasts the result. It is exposed as a reusable
// building block — the uniformity protocol's report phase is exactly an
// AggSum of per-node rejection counts.
func Aggregate(g *graph.Graph, values []uint64, op AggregateOp) (AggregateResult, error) {
	if len(values) != g.N() {
		return AggregateResult{}, fmt.Errorf("congest: %d values for %d nodes", len(values), g.N())
	}
	switch op {
	case AggSum, AggMin, AggMax:
	default:
		return AggregateResult{}, fmt.Errorf("congest: unknown aggregate op %d", op)
	}
	nodes := make([]simnet.Node, g.N())
	impls := make([]*aggNode, g.N())
	for v := range nodes {
		impls[v] = &aggNode{op: op, value: values[v]}
		nodes[v] = impls[v]
	}
	stats, err := run(g, nodes, Options{})
	if err != nil {
		return AggregateResult{}, err
	}
	res := AggregateResult{Root: -1, Stats: stats}
	for v, nd := range impls {
		if nd.err != nil {
			return AggregateResult{}, fmt.Errorf("congest: node %d: %w", v, nd.err)
		}
		if !nd.haveResult {
			return AggregateResult{}, fmt.Errorf("congest: node %d ended without the result", v)
		}
		if nd.isRoot() {
			if res.Root != -1 {
				return AggregateResult{}, fmt.Errorf("congest: multiple roots")
			}
			res.Root = v
			res.Value = nd.result
		} else if v == 0 {
			res.Value = nd.result
		}
	}
	if res.Root == -1 {
		return AggregateResult{}, fmt.Errorf("congest: no root elected")
	}
	// Consistency check: every node must hold the same result.
	for v, nd := range impls {
		if nd.result != res.Value {
			return AggregateResult{}, fmt.Errorf("congest: node %d holds %d, root %d", v, nd.result, res.Value)
		}
	}
	return res, nil
}

// Aggregate wire protocol: the tree wave reuses msgAnnounce/Accept/Reject/
// Complete semantics; the aggregated value follows the completion echo as a
// msgToken on the same FIFO (value fits the 9-byte token format), and the
// root broadcasts the result as a msgDecision-style msgToken downward after
// a msgStart marker. A child's value lands in its port's report[0].
type aggNode struct {
	wave
	op    AggregateOp
	value uint64

	haveResult bool
	result     uint64
	err        error
}

// Init implements simnet.Node.
func (nd *aggNode) Init(ctx *simnet.Context) { nd.initWave(ctx) }

// Round implements simnet.Node.
func (nd *aggNode) Round(in []simnet.PortMessage) ([]simnet.PortMessage, bool) {
	for _, pm := range in {
		m, err := decode(pm.Payload)
		if err != nil {
			nd.err = err
			return nil, true
		}
		nd.handle(pm.Port, m)
	}
	nd.step()
	out := nd.flush()
	return out, nd.haveResult && len(out) == 0
}

func (nd *aggNode) handle(port int, m message) {
	if handled, adopted := nd.handleTree(port, m); handled {
		if adopted {
			// Drop queued value tokens from the superseded root: they are
			// not root-tagged, and a stale one delivered to a node that
			// became our parent under the new root would be misread as the
			// result broadcast.
			nd.purgeTokens()
		}
		return
	}
	if m.typ != msgToken {
		return
	}
	// Before the result broadcast: a child's aggregated value (follows its
	// COMPLETE on the same FIFO). After: the root's result arriving from
	// the parent.
	if ps := &nd.ports[port]; ps.child && !ps.haveReport {
		ps.report[0] = m.a
		ps.haveReport = true
		nd.nReported++
		return
	}
	if port == nd.parentPort && !nd.haveResult {
		nd.haveResult = true
		nd.result = m.a
		nd.broadcast(message{typ: msgToken, a: m.a})
	}
}

func (nd *aggNode) step() {
	if !nd.subtreeComplete() || nd.nReported < len(nd.childPorts) {
		return
	}
	agg := nd.value
	for _, p := range nd.childPorts {
		agg = nd.op.apply(agg, nd.ports[p].report[0])
	}
	if !nd.isRoot() {
		nd.sendComplete(nd.subtreeSize())
		nd.enqueue(nd.parentPort, message{typ: msgToken, a: agg})
		return
	}
	if nd.root == nd.ctx.ID && !nd.sawBigger {
		nd.completeSent = true
		nd.haveResult = true
		nd.result = agg
		nd.broadcast(message{typ: msgToken, a: agg})
	}
}

// purgeTokens removes queued value tokens after a root change.
func (nd *aggNode) purgeTokens() {
	for p := range nd.outQ {
		nd.queued -= nd.outQ[p].dropTokens()
	}
}
