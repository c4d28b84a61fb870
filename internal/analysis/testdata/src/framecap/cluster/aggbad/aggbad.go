// Package aggbad exercises framecap on the aggregator's upstream forward
// path: partial-verdict frames that reach the upstream connection without
// passing through a wire constructor bypass the per-type frame cap.
package aggbad

import "net"

type aggregator struct {
	upstream *net.TCPConn
}

// flushHandRolled builds the partial frame by hand instead of via
// wire.AppendPartialSession, so the cap and canonical encoding are both
// skipped.
func (a *aggregator) flushHandRolled(trial int, votes, rejects uint64) {
	frame := []byte{0x07, byte(trial), byte(votes), byte(rejects)} // want "hand-rolled frame bytes reach the connection write"
	a.upstream.Write(frame)
}

// forwardRaw relays a child's frame bytes upstream verbatim; the origin is
// invisible here, so the cap cannot be shown to have applied.
func (a *aggregator) forwardRaw(childFrame []byte) {
	a.upstream.Write(childFrame) // want "byte slice of unknown origin reaches the connection write"
}

// replayHandRolled retries a flush by re-sending raw bytes on the upstream
// conn instead of re-encoding the retained entries.
func (a *aggregator) replayHandRolled() {
	raw := append([]byte{0x07}, 0x01) // want "hand-rolled frame bytes reach the connection write"
	a.upstream.Write(raw)
}
