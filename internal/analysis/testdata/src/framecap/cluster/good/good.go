// Package good holds framecap-clean transport code: every byte slice
// reaching a conn or the send queue comes from a wire constructor.
package good

import (
	"net"

	"wire"
)

type sendQueue struct{ pending [][]byte }

func (q *sendQueue) send(frame []byte) {
	q.pending = append(q.pending, frame)
}

func unbound(c net.Conn, vote byte) {
	buf := wire.AppendSession(nil, vote, 0)
	c.Write(buf)
}

func bound(c net.Conn, vote byte, session uint64) {
	frame := wire.AppendSession(nil, vote, session)
	c.Write(frame)
}

func viaEncoder(q *sendQueue, votes []byte) {
	var enc wire.BatchEncoder
	for _, v := range votes {
		frame := enc.AppendSession(nil, v, 0)
		q.send(frame)
	}
}

func reassigned(c net.Conn, votes []byte) {
	buf := wire.AppendSession(nil, 0, 0)
	for _, v := range votes {
		buf = wire.AppendSession(buf, v, 0)
	}
	c.Write(buf)
}
