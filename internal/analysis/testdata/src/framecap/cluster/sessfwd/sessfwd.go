// Package sessfwd mirrors the session service's frame forward paths:
// the control-connection report write and the verdict broadcast must
// originate from wire constructors, and a queued raw body — decoded,
// folded, but never re-framed — must not reach a connection verbatim.
package sessfwd

import (
	"net"

	"wire"
)

// reportForward is the SessionReport delivery: framed by a session-aware
// wire constructor, then written to the control connection.
func reportForward(ctrl net.Conn, payload byte, session uint64) {
	buf := wire.AppendSession(nil, payload, session)
	ctrl.Write(buf)
}

// broadcast is the verdict fan-out at session finish: one constructor
// call, many connection writes.
func broadcast(conns []net.Conn, verdict byte) {
	frame := wire.AppendSession(nil, verdict, 0)
	for _, c := range conns {
		c.Write(frame)
	}
}

// forwardRaw relays a queued frame body without re-framing it; its cap
// was checked by whoever read it, not by this write.
func forwardRaw(c net.Conn, body []byte) {
	c.Write(body) // want "byte slice of unknown origin reaches the connection write"
}

// restamp splices a session suffix onto a raw body by hand instead of
// going through the session-aware constructor.
func restamp(c net.Conn, body []byte, sess byte) {
	buf := append(body, sess) // want "hand-rolled frame bytes reach the connection write"
	c.Write(buf)
}
