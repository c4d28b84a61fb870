package cluster

import (
	"fmt"
	"io"
	"sync"

	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/obs/trace"
	"github.com/unifdist/unifdist/internal/wire"
)

// sendQueue is the connection-lifecycle layer under a batching node
// client: a bounded queue of encoded frames drained by a single writer
// goroutine, so vote computation never blocks on the kernel send buffer
// and writes coalesce naturally while the queue is non-empty.
//
// A full queue blocks the producer (backpressure), which keeps the
// batched path deterministic: every frame offered is written. The first
// write error is sticky: the writer keeps draining — so producers and
// Flush never deadlock on a dead connection — but writes nothing further,
// and every subsequent send/Flush reports the error to trigger the
// client's retry path.
//
// Frame buffers are recycled through a free list, so a steady-state
// producer allocates only when the queue is deeper than ever before.
type sendQueue struct {
	items chan queueItem
	free  chan []byte

	depth *obs.Gauge // cluster.queue_depth, shared across peers

	mu  sync.Mutex
	err error

	done      chan struct{}
	closeOnce sync.Once
}

// queueItem is one queued frame, or a flush marker when ack is non-nil.
type queueItem struct {
	buf []byte
	ack chan struct{}
}

// newSendQueue starts the writer goroutine for w with the given bound.
// prefix namespaces the queue's metrics: node clients share "cluster"
// (cluster.queue_depth), aggregator upstream queues use a per-tier
// prefix ("agg.tier1", ...) so each tier's depth is a separate gauge.
func newSendQueue(w io.Writer, depth int, reg *obs.Registry, prefix string) *sendQueue {
	q := &sendQueue{
		items: make(chan queueItem, depth),
		free:  make(chan []byte, depth+1),
		depth: reg.Gauge(prefix + ".queue_depth"),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(q.done)
		for it := range q.items {
			if it.ack != nil {
				close(it.ack)
				continue
			}
			q.depth.Add(-1)
			if q.Err() == nil {
				//unifvet:allow framecap producers encode via wire.Append*/BatchEncoder before Enqueue; the writer drains opaque pre-capped frames
				if _, err := w.Write(it.buf); err != nil {
					q.fail(err)
				}
			}
			select {
			case q.free <- it.buf[:0]:
			default:
			}
		}
	}()
	return q
}

// buffer returns a recycled encode buffer (or nil — append allocates).
func (q *sendQueue) buffer() []byte {
	select {
	case b := <-q.free:
		return b
	default:
		return nil
	}
}

// send enqueues one encoded frame, blocking while the queue is full. The
// sticky write error is returned so producers stop early on a dead
// connection.
func (q *sendQueue) send(buf []byte) error {
	if err := q.Err(); err != nil {
		return err
	}
	q.items <- queueItem{buf: buf}
	q.depth.Add(1)
	return nil
}

// Flush blocks until every frame enqueued before it has been handed to
// the connection (or abandoned after a write error), then reports the
// sticky error state: a drain point is a hard barrier.
func (q *sendQueue) Flush() error {
	ack := make(chan struct{})
	q.items <- queueItem{ack: ack}
	<-ack
	return q.Err()
}

// Close stops the writer after the queue drains. The owner must not send
// or Flush after Close.
func (q *sendQueue) Close() {
	q.closeOnce.Do(func() { close(q.items) })
	<-q.done
}

// Err returns the sticky first write error.
func (q *sendQueue) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

func (q *sendQueue) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
}

// batcher coalesces a node's votes into VoteBatch frames, flushing into
// the send queue on a count watermark (maxVotes), a byte watermark
// (maxBytes), or an explicit flush at a protocol point (disconnect, Done).
// There is no time-based flush: the deterministic path never consults a
// clock.
type batcher struct {
	q        *sendQueue
	enc      wire.BatchEncoder
	batch    wire.VoteBatch
	maxVotes int
	maxBytes int
	session  uint32
	bytes    int

	tr   *trace.Tracer
	sess trace.Context
	fill *obs.Histogram // cluster.batch_fill
	sent *obs.Counter   // per-peer sent frames
}

// newBatcher sizes a batcher from the session config.
func newBatcher(q *sendQueue, cfg Config, sess trace.Context, sent *obs.Counter) *batcher {
	b := &batcher{
		q:        q,
		maxVotes: cfg.batchSize(),
		maxBytes: cfg.flushBytes(),
		session:  cfg.Session,
		tr:       cfg.Trace,
		sess:     sess,
		fill:     cfg.Obs.Histogram("cluster.batch_fill", obs.BytesBuckets()),
		sent:     sent,
	}
	b.batch.Sketch = cfg.Sketch
	return b
}

// add appends one vote, flushing when a watermark trips.
func (b *batcher) add(v wire.BatchVote) error {
	var prev *wire.BatchVote
	if n := len(b.batch.Votes); n > 0 {
		prev = &b.batch.Votes[n-1]
	} else {
		// Fixed overhead slack: flags, count varint, bitset rounding.
		b.bytes = 16
	}
	b.bytes += wire.BatchVoteSize(prev, &v, b.batch.Sketch)
	if !b.batch.Sketch && len(b.batch.Votes)%8 == 0 {
		b.bytes++ // a fresh reject-bitset byte
	}
	b.batch.Votes = append(b.batch.Votes, v)
	if len(b.batch.Votes) >= b.maxVotes || b.bytes >= b.maxBytes {
		return b.flush()
	}
	return nil
}

// flush encodes and enqueues the pending batch (no-op when empty). The
// batch send span's context rides the frame, so the referee's apply spans
// parent on it across the connection.
func (b *batcher) flush() error {
	n := len(b.batch.Votes)
	if n == 0 {
		return nil
	}
	sp := b.tr.Start("node.sendbatch", b.sess, trace.A("votes", n))
	ctx := sp.Context()
	buf, err := b.enc.AppendSession(b.q.buffer(), &b.batch, b.session,
		wire.TraceContext{Trace: uint64(ctx.Trace), Span: uint64(ctx.Span)}, false)
	if err == nil {
		err = b.q.send(buf)
	}
	sp.End()
	b.fill.Observe(int64(n))
	b.sent.Inc()
	b.batch.Votes = b.batch.Votes[:0]
	b.bytes = 0
	if err != nil {
		return fmt.Errorf("batch flush: %w", err)
	}
	return nil
}
