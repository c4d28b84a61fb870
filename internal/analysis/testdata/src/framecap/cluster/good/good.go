// Package good holds framecap-clean transport code: every byte slice
// reaching a conn comes from a wire constructor.
package good

import (
	"io"
	"net"

	"wire"
)

func unbound(c net.Conn, vote byte) {
	buf := wire.AppendSession(nil, vote, 0)
	c.Write(buf)
}

func bound(c net.Conn, vote byte, session uint64) {
	frame := wire.AppendSession(nil, vote, session)
	c.Write(frame)
}

func viaEncoder(w io.Writer, votes []byte) {
	var enc wire.BatchEncoder
	for _, v := range votes {
		frame := enc.AppendSession(nil, v, 0)
		w.Write(frame)
	}
}

func reassigned(c net.Conn, votes []byte) {
	buf := wire.AppendSession(nil, 0, 0)
	for _, v := range votes {
		buf = wire.AppendSession(buf, v, 0)
	}
	c.Write(buf)
}
