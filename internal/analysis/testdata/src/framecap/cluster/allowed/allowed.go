// Package allowed verifies the //unifvet:allow directive suppresses a
// framecap finding (with the mandatory reason).
package allowed

import "net"

func preEncoded(c net.Conn, frame []byte) {
	//unifvet:allow framecap producers pre-encode via wire.AppendSession before the handoff
	c.Write(frame)
}
