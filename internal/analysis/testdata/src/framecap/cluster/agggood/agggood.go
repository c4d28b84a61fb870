// Package agggood holds the framecap-clean aggregator upstream forward
// path: every partial-verdict frame is built by wire.AppendPartialSession — and
// rebuilt by it on replay, rather than retained as raw bytes — before it
// reaches the upstream connection.
package agggood

import (
	"net"

	"wire"
)

type entry struct{ trial, votes, rejects byte }

type aggregator struct {
	upstream net.Conn
	flushed  []entry
}

// flush encodes the folded batch with the wire constructor and writes it.
func (a *aggregator) flush(batch []entry) {
	frame := wire.AppendPartialSession(nil, byte(len(batch)), 0)
	a.upstream.Write(frame)
	a.flushed = append(a.flushed, batch...)
}

// replay re-encodes the retained entries on retry, so a resend after a
// reconnect goes back through the cap instead of replaying stale bytes.
func (a *aggregator) replay() {
	for _, e := range a.flushed {
		frame := wire.AppendPartialSession(nil, e.trial, 0)
		a.upstream.Write(frame)
	}
}

// done signals end-of-stream upstream with a constructor-built frame.
func (a *aggregator) done(id byte) {
	a.upstream.Write(wire.AppendSession(nil, id, 0))
}
