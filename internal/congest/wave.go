package congest

import "github.com/unifdist/unifdist/internal/simnet"

// This file is the tree-wave substrate that node (packaging and the
// uniformity tester) and aggNode (Aggregate) share: max-ID flooding with
// echo termination, kept in port-indexed state, plus the per-port FIFOs
// and the outbox that carry every message. In steady state nothing here
// allocates: a tree reset clears the port slice in place, the FIFOs keep
// their storage when drained, and flush encodes into two payload arenas
// owned by the node.
//
// Why two arenas. simnet.Run copies payloads on delivery, but the reference
// engine the tests hold it to (simnettest.RunChannel) hands the receiver the
// sender's own slice, to read during the next round while the sender runs
// that round concurrently. So a round that sends encodes into
// the arena the previous sending round did not use; the receiver of the
// earlier payloads has finished with them before the sender comes back to
// that arena.

// portState is one port's bookkeeping for the current root: the announce
// reply still awaited, and what the child on the port has sent in each
// convergecast.
type portState struct {
	pending    bool // announced here, no accept or reject yet
	child      bool
	haveSize   bool
	haveCount  bool
	tokDone    bool
	haveReport bool
	size       uint32 // the child's subtree size (msgComplete)
	count      uint32 // the child's c(v) (msgCount)
	// report is the child's (rejects, virtuals) in the uniformity
	// protocol; Aggregate keeps the child's reduced value in report[0].
	report [2]uint64
}

// portQueue is one port's outgoing FIFO: a ring whose storage survives
// being drained.
type portQueue struct {
	buf  []message // power-of-two length once allocated
	head int
	n    int
}

func (q *portQueue) push(m message) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = m
	q.n++
}

func (q *portQueue) grow() {
	buf := make([]message, max(4, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}

func (q *portQueue) pop() message {
	m := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return m
}

// dropTokens removes the queued msgToken entries, keeping every other
// message in FIFO order, and returns how many it removed.
func (q *portQueue) dropTokens() int {
	mask := len(q.buf) - 1
	kept := 0
	for i := 0; i < q.n; i++ {
		if m := q.buf[(q.head+i)&mask]; m.typ != msgToken {
			q.buf[(q.head+kept)&mask] = m
			kept++
		}
	}
	dropped := q.n - kept
	q.n = kept
	return dropped
}

// wave is the per-node tree-wave state; it is reset whenever the node
// adopts a larger root.
type wave struct {
	ctx *simnet.Context

	root       int
	dist       int
	parentPort int // −1 while the node believes it is the root

	ports        []portState
	childPorts   []int // ports whose neighbor accepted, in accept order
	nPending     int   // ports with pending set
	nSized       int   // children with haveSize set
	nReported    int   // children with haveReport set
	sawBigger    bool  // evidence that a root larger than ours exists
	completeSent bool

	// outQ holds the per-port outgoing FIFOs; at most one message per port
	// drains per round, which serializes logical messages sharing an edge.
	outQ   []portQueue
	queued int // messages across all of outQ
	out    []simnet.PortMessage
	arena  [2][]byte
	cur    int // the arena the next sending round encodes into
}

// initWave sizes the node's buffers for its degree and starts the announce
// wave that claims the node itself as root.
func (w *wave) initWave(ctx *simnet.Context) {
	deg := ctx.Degree
	w.ctx = ctx
	w.root = ctx.ID
	w.dist = 0
	w.parentPort = -1
	w.ports = make([]portState, deg)
	w.childPorts = make([]int, 0, deg)
	w.outQ = make([]portQueue, deg)
	w.out = make([]simnet.PortMessage, 0, deg)
	// One message per port per round, each at most maxMessageBytes.
	mem := make([]byte, 2*deg*maxMessageBytes)
	half := deg * maxMessageBytes
	w.arena = [2][]byte{mem[:0:half], mem[half : half : 2*half]}
	for p := 0; p < deg; p++ {
		w.enqueue(p, message{typ: msgAnnounce, a: uint64(w.root), b: uint64(w.dist)})
		w.ports[p].pending = true
	}
	w.nPending = deg
}

// resetTree clears all per-root bookkeeping in place.
func (w *wave) resetTree() {
	clear(w.ports)
	w.childPorts = w.childPorts[:0]
	w.nPending, w.nSized, w.nReported = 0, 0, 0
	w.sawBigger = false
	w.completeSent = false
}

func (w *wave) isRoot() bool { return w.parentPort < 0 }

// adopt switches to a larger root announced on port with the given
// distance: accept toward the new parent, announce everywhere else.
func (w *wave) adopt(root, dist, port int) {
	w.root = root
	w.dist = dist
	w.parentPort = port
	w.resetTree()
	w.enqueue(port, message{typ: msgAccept, a: uint64(root)})
	for p := range w.ports {
		if p == port {
			continue
		}
		w.enqueue(p, message{typ: msgAnnounce, a: uint64(root), b: uint64(dist)})
		w.ports[p].pending = true
		w.nPending++
	}
}

// handleTree processes the four tree-wave messages. It reports whether m
// was one of them, and whether it made the node adopt a larger root.
func (w *wave) handleTree(port int, m message) (handled, adopted bool) {
	ps := &w.ports[port]
	switch m.typ {
	case msgAnnounce:
		if root := int(m.a); root > w.root {
			w.adopt(root, int(m.b)+1, port)
			return true, true
		}
		// Decline, reporting our current root: the announcer records
		// "bigger root exists" evidence when ours is strictly larger.
		w.enqueue(port, message{typ: msgReject, a: m.a, b: uint64(w.root)})
	case msgAccept:
		if int(m.a) == w.root && ps.pending {
			ps.pending = false
			w.nPending--
			ps.child = true
			w.childPorts = append(w.childPorts, port)
		}
	case msgReject:
		if int(m.a) == w.root && ps.pending {
			ps.pending = false
			w.nPending--
			if int(m.b) > w.root {
				w.sawBigger = true
			}
		}
	case msgComplete:
		if int(m.a) == w.root && ps.child && !ps.haveSize {
			ps.haveSize = true
			ps.size = uint32(m.b) & completeSizeMask
			w.nSized++
			if m.b&completeBiggerBit != 0 {
				w.sawBigger = true
			}
		}
	default:
		return false, false
	}
	return true, false
}

// subtreeComplete reports whether the completion echo is due: every
// neighbor answered our announce and every child's subtree completed.
func (w *wave) subtreeComplete() bool {
	return !w.completeSent && w.nPending == 0 && w.nSized == len(w.childPorts)
}

// subtreeSize is 1 plus the children's reported subtree sizes.
func (w *wave) subtreeSize() int {
	size := 1
	for _, p := range w.childPorts {
		size += int(w.ports[p].size)
	}
	return size
}

// sendComplete queues the completion echo toward the parent, carrying the
// subtree size and the bigger-root evidence bit.
func (w *wave) sendComplete(size int) {
	w.completeSent = true
	packed := uint64(size) & completeSizeMask
	if w.sawBigger {
		packed |= completeBiggerBit
	}
	w.enqueue(w.parentPort, message{typ: msgComplete, a: uint64(w.root), b: packed})
}

// broadcast queues m toward every child.
func (w *wave) broadcast(m message) {
	for _, p := range w.childPorts {
		w.enqueue(p, m)
	}
}

// enqueue appends a message to a port's outgoing FIFO.
func (w *wave) enqueue(port int, m message) {
	w.outQ[port].push(m)
	w.queued++
}

// flush pops at most one message per port, dropping stale tree-protocol
// messages that refer to a superseded root. The next flush reuses the
// returned outbox; its payloads stay valid until the second sending flush
// after this one.
func (w *wave) flush() []simnet.PortMessage {
	if w.queued == 0 {
		return nil
	}
	buf := w.arena[w.cur][:0]
	out := w.out[:0]
	for p := range w.outQ {
		q := &w.outQ[p]
		for q.n > 0 {
			m := q.pop()
			w.queued--
			if w.isStale(m) {
				continue
			}
			off := len(buf)
			buf = appendEncode(buf, m)
			out = append(out, simnet.PortMessage{Port: p, Payload: buf[off:len(buf):len(buf)]})
			break
		}
	}
	w.arena[w.cur], w.out = buf, out
	if len(out) > 0 {
		w.cur ^= 1
	}
	return out
}

// isStale reports whether a queued tree message refers to a root we no
// longer believe in. Responses to other nodes' announces (rejects) are
// never stale: the sender needs them tagged with its own root.
func (w *wave) isStale(m message) bool {
	switch m.typ {
	case msgAnnounce, msgAccept, msgComplete:
		return int(m.a) != w.root
	default:
		return false
	}
}
