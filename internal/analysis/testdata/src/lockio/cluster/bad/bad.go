// Package bad exercises lockio's violation cases: blocking I/O of every
// flavor while a mutex is held.
package bad

import (
	"net"
	"sync"
	"time"

	"wire"
)

type referee struct {
	mu    sync.Mutex
	ch    chan int
	total int
}

func (r *referee) connWriteHeld(c net.Conn, b []byte) {
	r.mu.Lock()
	c.Write(b) // want "conn Write while holding r.mu"
	r.mu.Unlock()
}

func (r *referee) connReadHeld(c net.Conn, b []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c.Read(b) // want "conn Read while holding r.mu"
}

func (r *referee) wireWriteHeld(c net.Conn, b []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	wire.WriteFrame(c, b) // want "wire.WriteFrame while holding r.mu"
}

func (r *referee) wireReadHeld(rd *wire.Reader) {
	r.mu.Lock()
	rd.ReadFrame() // want "wire.Reader.ReadFrame while holding r.mu"
	r.mu.Unlock()
}

func (r *referee) sendHeld(v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ch <- v // want "channel send while holding r.mu"
}

func (r *referee) sleepHeld() {
	r.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding r.mu"
	r.mu.Unlock()
}

func (r *referee) selectSendHeld(v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case r.ch <- v: // want "channel send in a select without default while holding r.mu"
	}
}

func (r *referee) heldInBranch(c net.Conn, b []byte, flush bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if flush {
		c.Write(b) // want "conn Write while holding r.mu"
	}
}
