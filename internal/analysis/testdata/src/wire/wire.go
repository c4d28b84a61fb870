// Package wire is a minimal stand-in for internal/wire in framecap and
// lockio fixtures: the analyzers recognize frame constructors by the
// "wire" path segment plus an Append name prefix, and WriteFrame and the
// Reader type by name.
package wire

import "io"

// AppendSession appends one cap-checked, session-stamped frame to buf.
func AppendSession(buf []byte, payload byte, session uint64) []byte {
	return append(buf, 1, payload, byte(session))
}

// AppendPartialSession appends one cap-checked partial-verdict frame to
// buf.
func AppendPartialSession(buf []byte, payload byte, session uint64) []byte {
	return append(buf, 7, payload, byte(session))
}

// BatchEncoder accumulates votes into cap-checked batch frames.
type BatchEncoder struct{ votes []byte }

// AppendSession adds one vote and appends the running batch frame to dst.
func (e *BatchEncoder) AppendSession(dst []byte, vote byte, session uint64) []byte {
	e.votes = append(e.votes, vote)
	return append(append(dst, 2, byte(len(e.votes)), byte(session)), e.votes...)
}

// WriteFrame writes one frame to w (stub).
func WriteFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}

// Reader decodes frames from a stream (stub).
type Reader struct{ n int }

// ReadFrame consumes one frame (stub).
func (r *Reader) ReadFrame() ([]byte, error) {
	r.n++
	return nil, nil
}
