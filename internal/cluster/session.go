// Service surface of the referee: the multi-tenant session service
// (internal/cluster/service) terminates the transport itself — one
// listener multiplexing many sessions — so it cannot use Referee.Serve,
// which owns a listener for exactly one session. Instead the service
// routes each decoded frame to the referee of the frame's session
// through the Peer API below: Handshake registers the connection's
// identity, Apply folds its subsequent frames, and Decided/Finalize
// expose the trigger/finalization halves Serve normally drives. Every
// path lands in the same voteSink fold as a solo run, which is what
// keeps a multiplexed session's report byte-identical (sans transport
// stats) to its flat-star equivalent.

package cluster

import (
	"errors"
	"net"

	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/wire"
)

// Peer is one registered peer of a service-hosted referee: either a
// direct leaf (Hello) or a child aggregator (AggHello). The zero Peer is
// invalid; obtain one from Referee.Handshake. Calls on one Peer must not
// overlap; the service applies a session's frames in arrival order on one
// worker at a time.
type Peer struct {
	rf     *Referee
	node   int      // leaf node ID, or -1 for aggregator peers
	agg    *aggPeer // registered child aggregator, or nil
	recv   *obs.Counter
	failed bool // a frame violated the protocol: refuse every later one
}

// errPeerFailed refuses the frames a peer sends after a protocol
// violation, which the solo referee never reads.
var errPeerFailed = errors.New("cluster: peer already violated the protocol")

// Handshake validates and registers a peer's opening frame (Hello or
// AggHello) with exactly the checks the referee's own connection handler
// applies. A failed handshake counts a bad frame and returns an error;
// the caller should terminate the transport.
func (rf *Referee) Handshake(f wire.Frame) (*Peer, error) {
	node, agg, err := rf.handshake(f)
	if err != nil {
		return nil, err
	}
	p := &Peer{rf: rf, node: node, agg: agg, recv: rf.peerCounter(node, agg)}
	p.recv.Inc() // the handshake frame itself
	return p, nil
}

// Apply folds one post-handshake frame from the peer into its referee
// through the same validation, dedup and incremental-decision path a
// directly served connection takes. wireBytes is the frame's on-wire size
// (body plus length prefix) for the byte accounting. It returns done=true
// when the frame was the peer's Done marker: the peer sends nothing
// further and waits for the verdict. A returned error means the frame
// violated the protocol (counted as a bad frame); the caller should
// terminate the transport, and the peer refuses every later frame — those
// the transport already delivered included — so exactly the frames the
// solo referee reads before it hangs up are folded.
func (p *Peer) Apply(f wire.Frame, tc wire.TraceContext, wireBytes int) (bool, error) {
	if p.failed {
		return false, errPeerFailed
	}
	p.recv.Inc()
	done, err := p.rf.applyFrame(f, tc, p.node, p.agg, wireBytes)
	p.failed = err != nil
	return done, err
}

// Fail records a frame from the peer that did not decode: it counts a bad
// frame, as the solo referee's handler does for a codec error, and the
// peer refuses every later frame. The caller should terminate the
// transport.
func (p *Peer) Fail() {
	if !p.failed {
		p.failed = true
		p.rf.countBadFrame(0)
	}
}

// Register records conn for the verdict broadcast at finalization and
// counts the accepted connection. It reports false when the session
// already finalized — the caller should close conn itself.
func (rf *Referee) Register(conn net.Conn) bool {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if rf.closed {
		return false
	}
	rf.conns = append(rf.conns, conn)
	rf.stats.Connections++
	return true
}

// Decided returns the channel closed when the session's outcome is
// fixed: every node done, or every verdict early-decided under
// Config.EarlyClose.
func (rf *Referee) Decided() <-chan struct{} {
	return rf.trigger
}

// Finalize decides the remaining trials via the quorum policy, closes
// the session against further folds, and returns the report, the
// verdict broadcast frame, and the registered connections to flush it
// to. Callers own closing the connections.
func (rf *Referee) Finalize() (*Report, wire.Verdict, []net.Conn) {
	return rf.finalize()
}

// MarkExpired records that the session hit its deadline (or was evicted
// as stalled) and fires the decision trigger, so a Decided waiter
// proceeds to Finalize with the quorum fallback covering the missing
// votes.
func (rf *Referee) MarkExpired() {
	rf.mu.Lock()
	rf.stats.DeadlineExpired = true
	rf.mu.Unlock()
	rf.fire()
}
