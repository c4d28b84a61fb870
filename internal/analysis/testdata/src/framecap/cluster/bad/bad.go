// Package bad exercises framecap's violation cases: hand-rolled frame
// bytes and untraceable byte slices reaching connection writes.
package bad

import (
	"io"
	"net"
)

func handRolled(c net.Conn) {
	buf := []byte{0x01, 0x02, 0x03} // want "hand-rolled frame bytes reach the connection write"
	c.Write(buf)
}

func handRolledAppend(c net.Conn, vote byte) {
	frame := append([]byte{0x01}, vote) // want "hand-rolled frame bytes reach the connection write"
	c.Write(frame)
}

func unknownOrigin(c net.Conn, payload []byte) {
	c.Write(payload) // want "byte slice of unknown origin reaches the connection write"
}

func writerHandRolled(w io.Writer, vote byte) {
	raw := []byte{0xff, vote} // want "hand-rolled frame bytes reach the connection write"
	w.Write(raw)
}

func slicedRaw(c net.Conn, body []byte) {
	c.Write(body[4:]) // want "byte slice of unknown origin reaches the connection write"
}
