// Service surface of the referee: the multi-tenant session service
// (internal/cluster/service) terminates the transport itself — one
// listener multiplexing many sessions — so it cannot use Referee.Serve,
// which owns a listener for exactly one session. Instead it routes each
// peer connection to the referee of its session and hosts it on a shared
// Ingest (Ingest.Serve), the same read path Serve runs, and drives the
// trigger/finalization halves Serve normally drives through Decided and
// Finalize. Handshake and Peer.Apply expose the fold to callers that read
// frames themselves. Every path lands in the same voteSink fold as a solo
// run, which is what keeps a multiplexed session's report byte-identical
// (sans transport stats) to its flat-star equivalent.

package cluster

import (
	"net"

	"github.com/unifdist/unifdist/internal/wire"
)

// Handshake validates and registers a peer's opening frame (Hello or
// AggHello) with exactly the checks the ingest's readers apply. A failed
// handshake counts a bad frame and returns an error; the caller should
// terminate the transport.
func (rf *Referee) Handshake(f wire.Frame) (*Peer, error) {
	return rf.handshake(f)
}

// Decided returns the channel closed when every node of the session is
// done. Finalize closes it too, so a waiter always returns.
func (rf *Referee) Decided() <-chan struct{} {
	return rf.trigger
}

// Finalize decides the remaining trials via the quorum fallback, closes
// the session against further folds, and returns the report, the
// verdict broadcast frame, and the registered connections to flush it
// to. Callers own closing the connections.
func (rf *Referee) Finalize() (*Report, wire.Verdict, []net.Conn) {
	return rf.finalize()
}
