// Package congest implements the paper's CONGEST-model protocols: leader
// election and BFS-tree construction by max-ID flooding with echo
// termination, τ-token packaging (Theorem 5.1), and the full distributed
// uniformity tester of Theorem 1.4 built on top of them.
//
// The implementation is faithful to the model — and slightly stronger than
// the paper's assumptions: nodes need to know neither the diameter D nor
// the network size k. Completion is detected via echoes carrying subtree
// sizes and "bigger root seen" evidence (a completed tree with no such
// evidence necessarily spans the whole graph), and the root derives the
// protocol parameters (τ, T) from the discovered k before broadcasting
// them with the start signal. Every message fits in the simulator's
// CONGEST budget (16 bytes = Θ(log n) bits).
//
// No node program reads a token's value to route it, so one run fixes the
// schedule every input shares; RunSchedule returns it, and its Network is
// the 0-round threshold network Theorem 1.4 reduces to, on which the
// tester's error is estimated without simulating each trial.
package congest

import (
	"fmt"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/simnet"
)

// Mode selects how much of the protocol runs.
type Mode int

const (
	// ModePackagingOnly stops after τ-token packaging (Theorem 5.1).
	ModePackagingOnly Mode = iota + 1
	// ModeUniformity additionally tests each package, aggregates rejection
	// counts up the tree and broadcasts the root's decision (Theorem 1.4).
	ModeUniformity
)

// completeSizeMask packs the subtree size and the bigger-root-evidence flag
// into msgComplete's b field.
const (
	completeSizeMask  = 0x7fffffff
	completeBiggerBit = 1 << 31
)

// node is the per-vertex protocol state machine.
type node struct {
	wave
	mode   Mode
	tokens []uint64 // this node's initial samples (s ≥ 1 supported)

	// Configured parameters; cfgTau == 0 means "unknown k": the root
	// derives (τ, T) from the discovered network size via paramSolver.
	cfgTau, cfgT int
	paramSolver  func(k int) (tau, threshold int, err error)

	// Active parameters, fixed once the start broadcast arrives (or, at
	// the root, once the tree completes).
	tau, t int

	treeDone bool // true root only
	treeSize int  // root only: discovered k

	// COUNT-wave state (computable only after τ is known).
	started   bool
	nCounted  int // children whose COUNT arrived
	haveCount bool
	cSelf     int
	mPrime    int

	// Token-pipeline state.
	sentUp      int
	tokDoneSent bool
	nTokDone    int // children whose TOKDONE arrived
	held        []uint64
	finalized   bool
	packages    [][]uint64
	discarded   int
	sortBuf     []uint64 // collision-check scratch for the packages

	// Report/decision state (ModeUniformity).
	localRejects  int
	localVirtuals int
	reportSent    bool
	totalRejects  int
	totalVirtuals int
	decision      int // −1 unknown, 0 reject, 1 accept

	// err records a protocol-invariant violation for the driver.
	err error
}

func newNode(mode Mode, tau, threshold int, tokens []uint64, solver func(k int) (int, int, error)) *node {
	return &node{
		mode:        mode,
		cfgTau:      tau,
		cfgT:        threshold,
		paramSolver: solver,
		tokens:      tokens,
		decision:    -1,
	}
}

// Init implements simnet.Node.
func (nd *node) Init(ctx *simnet.Context) {
	nd.held = append([]uint64(nil), nd.tokens...)
	// The initial announce wave: claim to be the root.
	nd.initWave(ctx)
}

// Round implements simnet.Node.
func (nd *node) Round(in []simnet.PortMessage) ([]simnet.PortMessage, bool) {
	for _, pm := range in {
		m, err := decode(pm.Payload)
		if err != nil {
			nd.fail(err)
			return nil, true
		}
		nd.handle(pm.Port, m)
	}
	nd.step()
	out := nd.flush()
	return out, nd.isDone() && len(out) == 0
}

// Err returns the first protocol violation observed, if any.
func (nd *node) Err() error { return nd.err }

func (nd *node) fail(err error) {
	if nd.err == nil {
		nd.err = err
	}
}

// handle processes one incoming message.
func (nd *node) handle(port int, m message) {
	if handled, _ := nd.handleTree(port, m); handled {
		return
	}
	ps := &nd.ports[port]
	switch m.typ {
	case msgStart:
		if port == nd.parentPort && !nd.started {
			nd.startPipeline(int(m.a), int(m.b))
		}
	case msgCount:
		if ps.child {
			if !ps.haveCount {
				ps.haveCount = true
				nd.nCounted++
			}
			ps.count = uint32(m.a)
		}
	case msgToken:
		if ps.child {
			nd.held = append(nd.held, m.a)
		}
	case msgTokDone:
		if ps.child && !ps.tokDone {
			ps.tokDone = true
			nd.nTokDone++
		}
	case msgReport:
		if ps.child {
			if !ps.haveReport {
				ps.haveReport = true
				nd.nReported++
			}
			ps.report = [2]uint64{m.a, m.b}
		}
	case msgDecision:
		if port == nd.parentPort && nd.decision < 0 {
			nd.decision = int(m.a)
			nd.broadcast(message{typ: msgDecision, a: m.a})
		}
	}
}

// startPipeline fixes the protocol parameters and forwards the start
// signal down the tree; leaves can emit their COUNT immediately.
func (nd *node) startPipeline(tau, threshold int) {
	if tau < 1 {
		nd.fail(fmt.Errorf("congest: node %d received invalid τ=%d", nd.ctx.ID, tau))
		return
	}
	nd.started = true
	nd.tau = tau
	nd.t = threshold
	nd.broadcast(message{typ: msgStart, a: uint64(tau), b: uint64(threshold)})
}

// step advances local state transitions after all messages of the round
// were handled.
func (nd *node) step() {
	nd.stepTreeCompletion()
	if nd.started {
		nd.stepCount()
	}
	if nd.haveCount {
		nd.stepPipeline()
	}
	if nd.mode == ModeUniformity && nd.finalized {
		nd.stepReport()
	}
}

// stepTreeCompletion sends the completion echo once every neighbor has
// responded to our announce and every child subtree has completed. A
// completed tree with no "bigger root" evidence necessarily spans the
// whole graph (every boundary response would otherwise carry a bigger
// root), so the root needs to know neither D nor k to declare victory.
func (nd *node) stepTreeCompletion() {
	if !nd.subtreeComplete() {
		return
	}
	size := nd.subtreeSize()
	if !nd.isRoot() {
		nd.sendComplete(size)
		return
	}
	if nd.root == nd.ctx.ID && !nd.sawBigger && !nd.started {
		nd.completeSent = true
		nd.treeDone = true
		nd.treeSize = size
		tau, threshold := nd.cfgTau, nd.cfgT
		if tau == 0 {
			if nd.paramSolver == nil {
				nd.fail(fmt.Errorf("congest: node %d has no parameters and no solver", nd.ctx.ID))
				return
			}
			var err error
			tau, threshold, err = nd.paramSolver(size)
			if err != nil {
				nd.fail(fmt.Errorf("congest: parameter solver for k=%d: %w", size, err))
				return
			}
		}
		nd.startPipeline(tau, threshold)
	}
}

// stepCount emits c(v) = (1 + Σ c(children)) mod τ once every child's
// count arrived — the second convergecast, possible only after τ is known.
func (nd *node) stepCount() {
	if nd.haveCount || nd.nCounted < len(nd.childPorts) {
		return
	}
	sum := 0
	for _, p := range nd.childPorts {
		sum += int(nd.ports[p].count)
	}
	// The paper's s = 1 start generalizes directly: this node contributes
	// its own |tokens| samples instead of one.
	nd.mPrime = len(nd.tokens) + sum
	nd.cSelf = nd.mPrime % nd.tau
	nd.haveCount = true
	if !nd.isRoot() {
		nd.enqueue(nd.parentPort, message{typ: msgCount, a: uint64(nd.cSelf)})
	}
}

// stepPipeline forwards at most one token per round and finalizes
// packaging once the subtree's token stream has drained.
func (nd *node) stepPipeline() {
	if nd.sentUp < nd.cSelf && len(nd.held) > 0 {
		tok := nd.held[0]
		nd.held = nd.held[1:]
		if nd.isRoot() {
			nd.discarded++ // the paper's root discards its c(r) tokens
		} else {
			nd.enqueue(nd.parentPort, message{typ: msgToken, a: tok})
		}
		nd.sentUp++
	}
	if nd.sentUp == nd.cSelf && !nd.tokDoneSent {
		nd.tokDoneSent = true
		if !nd.isRoot() {
			nd.enqueue(nd.parentPort, message{typ: msgTokDone})
		}
	}
	if nd.finalized || !nd.tokDoneSent || nd.sentUp < nd.cSelf || nd.nTokDone < len(nd.childPorts) {
		return
	}
	// All tokens this node will ever hold have arrived.
	if len(nd.held)%nd.tau != 0 {
		nd.fail(fmt.Errorf("congest: node %d kept %d tokens, not a multiple of τ=%d",
			nd.ctx.ID, len(nd.held), nd.tau))
	}
	for len(nd.held) >= nd.tau {
		pkg := nd.held[:nd.tau:nd.tau]
		nd.held = nd.held[nd.tau:]
		nd.packages = append(nd.packages, pkg)
	}
	nd.localVirtuals = len(nd.packages)
	for _, pkg := range nd.packages {
		if dist.HasRepeat(pkg, &nd.sortBuf) {
			nd.localRejects++
		}
	}
	nd.finalized = true
}

// stepReport aggregates (rejects, virtuals) once all children reported;
// the root then decides and broadcasts.
func (nd *node) stepReport() {
	if nd.reportSent || nd.nReported < len(nd.childPorts) {
		return
	}
	rej, vir := nd.localRejects, nd.localVirtuals
	for _, p := range nd.childPorts {
		r := nd.ports[p].report
		rej += int(r[0])
		vir += int(r[1])
	}
	nd.totalRejects, nd.totalVirtuals = rej, vir
	nd.reportSent = true
	if !nd.isRoot() {
		nd.enqueue(nd.parentPort, message{typ: msgReport, a: uint64(rej), b: uint64(vir)})
		return
	}
	// Root decision: reject iff at least T virtual nodes reject.
	acc := uint64(0)
	if rej < nd.t {
		acc = 1
	}
	nd.decision = int(acc)
	nd.broadcast(message{typ: msgDecision, a: acc})
}

// isDone reports whether the node's role in the protocol has ended. The
// caller additionally requires the outgoing queues to have drained.
func (nd *node) isDone() bool {
	if nd.err != nil {
		return true
	}
	if !nd.finalized {
		return false
	}
	if nd.mode == ModePackagingOnly {
		return true
	}
	return nd.decision >= 0
}
