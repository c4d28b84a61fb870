// Package good holds qlifecycle-clean goroutines, centered on the
// sendQueue single-writer idiom: the writer drains a channel with
// for-range, so closing the channel is the shutdown path.
package good

import "io"

type sendQueue struct {
	items chan []byte
	done  chan struct{}
}

// start launches the single writer goroutine; close(q.items) ends the
// range loop and done signals the drain is complete.
func (q *sendQueue) start(w io.Writer) {
	go func() {
		defer close(q.done)
		for it := range q.items {
			w.Write(it) //unifvet:allow framecap producers pre-encode via wire.AppendSession before enqueue
		}
	}()
}

// pump loops until the stop channel closes — the select clause returns.
func pump(stop chan struct{}, ch chan int) {
	go func() {
		for {
			select {
			case <-stop:
				return
			case v := <-ch:
				_ = v
			}
		}
	}()
}

// bounded loops with a condition, so it terminates on its own.
func bounded(ch chan int) {
	go func() {
		for i := 0; i < 8; i++ {
			ch <- i
		}
	}()
}

// breakOut escapes its loop with an unlabeled break at loop level.
func breakOut(ch chan int) {
	go func() {
		for {
			if _, ok := <-ch; !ok {
				break
			}
		}
	}()
}

// oneShot has no loop at all; it runs to completion.
func oneShot(ch chan int) {
	go func() { ch <- 1 }()
}

// dynamic spawns a caller-supplied function the analyzer cannot see into.
func dynamic(fn func()) {
	go fn()
}
