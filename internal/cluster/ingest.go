package cluster

import (
	"net"
	"sync"
	"time"

	"github.com/unifdist/unifdist/internal/wire"
)

// The ingest is the one path from a peer's connection to its sink's fold,
// for every owner alike: a solo referee or aggregator runs one of its own
// with a single worker, and the session service shares one among all its
// sessions. It decouples reading frames from folding them. A reader
// goroutine per connection registers the peer from its opening frame and
// queues each later frame body on its sink's bounded FIFO, blocking while
// that queue is full — backpressure on that sink's readers alone, never
// on another sink's. A fixed worker pool serves the sinks round-robin,
// decoding and folding at most ingestQuantum frames per turn before the
// sink goes to the back of the ring. Two invariants carry the correctness
// argument:
//
//   - One worker per sink at a time. A sink's queue is idle, ringed, or
//     owned by exactly one draining worker — never by two — so frames
//     from one connection fold in the order they arrived, which
//     Done-after-votes ordering requires.
//   - Fairness is structural, not probabilistic. A hot sink re-enters the
//     ring behind every sink that was already waiting, so n sinks with
//     pending work each get every n-th quantum regardless of offered load.
//
// The ring and every queue live under the ingest mutex. Each queue has its
// own condition variable on that mutex, so a freed slot wakes one reader
// of that sink only. Decoding and folding happen strictly outside the
// lock.

// Ingest sizing, the same for every owner: a worker folds at most
// ingestQuantum frames of one sink per turn, and a sink queues at most
// ingestDepth frame bodies.
const (
	ingestQuantum = 32
	ingestDepth   = 64
)

// Sink queue states.
const (
	qIdle     = iota // empty, not in the ring
	qRinged          // in the ring, awaiting a worker
	qDraining        // owned by exactly one worker
)

// frameItem is one queued frame: an owned copy of the body (the reader's
// buffer is reused) plus the peer and connection it arrived on.
type frameItem struct {
	peer *Peer
	conn net.Conn
	body []byte
}

// sinkQueue is one sink's inbound frame FIFO, guarded by the mutex of the
// ingest the sink is bound to.
type sinkQueue struct {
	state int
	dead  bool        // sink retired: admit nothing, fold nothing
	room  *sync.Cond  // a slot freed, or the sink retired
	items []frameItem // FIFO; head at index 0
	free  [][]byte    // recycled body buffers
}

// Ingest hosts peer connections and folds their frames into their sinks.
// Build with NewIngest, host connections with Serve, stop with Close.
type Ingest struct {
	mu      sync.Mutex
	work    *sync.Cond  // the ring gained an entry, or stopping
	ring    []*voteSink // sinks in state qRinged, FIFO
	stopped bool

	workers sync.WaitGroup
	readers sync.WaitGroup
}

// NewIngest starts an ingest with the given number of fold workers.
func NewIngest(workers int) *Ingest {
	g := &Ingest{}
	g.work = sync.NewCond(&g.mu)
	g.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go g.worker()
	}
	return g
}

// Serve hosts one peer connection of rf whose opening frame body, first,
// was already read from r — the session service reads it to route the
// connection by its session field. It returns when the peer sent its Done,
// hung up or broke the protocol, or when rf's session ended; the
// connection stays registered for the verdict broadcast.
func (g *Ingest) Serve(rf *Referee, conn net.Conn, r *wire.Reader, first []byte) {
	if !rf.register(conn, g) {
		conn.Close()
		return
	}
	g.read(&rf.voteSink, conn, r, first)
}

// Close waits for the readers and then stops the workers once the ring
// drained. Callers first finalize every session the ingest hosts
// (Referee.Finalize), which ends every reader: the broadcast closes its
// connection and its queue refuses frames.
func (g *Ingest) Close() {
	g.readers.Wait()
	g.mu.Lock()
	g.stopped = true
	g.work.Broadcast()
	g.mu.Unlock()
	g.workers.Wait()
}

// acceptLoop hosts every connection l accepts on s until l closes, each
// one's reads bounded by deadline.
func (g *Ingest) acceptLoop(s *voteSink, l net.Listener, deadline time.Duration) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if !s.register(conn, g) {
			conn.Close()
			continue
		}
		go func() {
			// Absolute per-connection read bound: a stalled peer cannot
			// hold its reader past the session deadline.
			conn.SetReadDeadline(time.Now().Add(deadline)) //unifvet:allow wallclock connection-deadline safety net; verdicts depend only on which votes arrive
			g.read(s, conn, wire.NewReader(conn), nil)
		}()
	}
}

// read drains one registered connection of s. Its opening frame (body, or
// the first one read from r when body is nil) must register the peer;
// every later frame body is queued for the workers, up to and including
// the peer's Done. A framing error or a rejected opening frame counts a
// bad frame and ends the transport, as does any violation a worker finds
// later, so nothing the peer sends after a bad frame folds.
func (g *Ingest) read(s *voteSink, conn net.Conn, r *wire.Reader, body []byte) {
	defer g.readers.Done()
	s.m.connected.Add(1)
	defer s.m.connected.Add(-1)
	var peer *Peer
	for {
		if body == nil {
			var err error
			if body, err = r.ReadBody(); err != nil {
				// EOF, peer close, injected disconnect, or framing error:
				// framing errors count as a bad frame, transport ends
				// either way.
				if !isClosedErr(err) {
					s.countBadFrame(0)
					conn.Close()
				}
				return
			}
		}
		if peer == nil {
			if !s.ingestFrame(body, nil, func(f wire.Frame, _ wire.TraceContext, n int) (_ bool, err error) {
				s.countFrame(n)
				peer, err = s.handshake(f)
				return false, err
			}) {
				conn.Close()
				return
			}
		} else if !g.offer(s, frameItem{peer: peer, conn: conn}, body) {
			conn.Close() // the session ended while this peer was mid-stream
			return
		} else if wire.BodyType(body) == wire.TypeDone {
			// The peer sends nothing further; its connection stays open
			// for the verdict broadcast. The Done folds in queue order,
			// after every frame that preceded it.
			return
		}
		body = nil
	}
}

// offer queues the item it, carrying a copy of body, on s's FIFO,
// blocking while the queue is full. It reports false once s retired; the
// caller should close the connection.
func (g *Ingest) offer(s *voteSink, it frameItem, body []byte) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	q := &s.inbox
	if q.room == nil {
		q.room = sync.NewCond(&g.mu)
	}
	for len(q.items) >= ingestDepth && !q.dead {
		q.room.Wait()
	}
	if q.dead {
		return false
	}
	if n := len(q.free); n > 0 {
		it.body = q.free[n-1]
		q.free = q.free[:n-1]
	}
	it.body = append(it.body[:0], body...)
	q.items = append(q.items, it)
	s.m.depth.Set(float64(len(q.items)))
	if q.state == qIdle {
		q.state = qRinged
		g.ring = append(g.ring, s)
		g.work.Signal()
	}
	return true
}

// worker serves ringed sinks until Close: pop one, take a quantum of its
// frames, fold them outside the lock, and requeue the sink behind the
// others if more arrived.
func (g *Ingest) worker() {
	defer g.workers.Done()
	var sc wire.DecodeScratch
	batch := make([]frameItem, 0, ingestQuantum)
	for {
		g.mu.Lock()
		for len(g.ring) == 0 && !g.stopped {
			g.work.Wait()
		}
		if len(g.ring) == 0 { // stopped, ring fully drained
			g.mu.Unlock()
			return
		}
		s := g.ring[0]
		g.ring = g.ring[:copy(g.ring, g.ring[1:])]
		q := &s.inbox
		q.state = qDraining
		n := min(len(q.items), ingestQuantum)
		batch = append(batch[:0], q.items[:n]...)
		rest := copy(q.items, q.items[n:])
		clear(q.items[rest:])
		q.items = q.items[:rest]
		s.m.depth.Set(float64(rest))
		for i := 0; i < n; i++ {
			q.room.Signal()
		}
		g.mu.Unlock()

		for i := range batch {
			it := &batch[i]
			if p := it.peer; !p.failed && !s.ingestFrame(it.body, &sc, p.Apply) {
				p.failed = true
				it.conn.Close()
			}
		}

		g.mu.Lock()
		for i := range batch {
			if !q.dead && len(q.free) < ingestDepth {
				q.free = append(q.free, batch[i].body)
			}
			batch[i] = frameItem{}
		}
		q.state = qIdle
		if len(q.items) > 0 {
			q.state = qRinged
			g.ring = append(g.ring, s)
			g.work.Signal()
		}
		g.mu.Unlock()
	}
}

// retire drops s's pending frames and releases its blocked readers; every
// later offer fails. A worker draining s finishes its quantum, whose folds
// the closed sink ignores.
func (g *Ingest) retire(s *voteSink) {
	g.mu.Lock()
	q := &s.inbox
	q.dead = true
	q.items, q.free = nil, nil
	if q.room != nil {
		q.room.Broadcast()
	}
	g.mu.Unlock()
	s.m.depth.Set(0)
}
