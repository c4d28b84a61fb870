package simnet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
)

// This file is the flat round engine behind Run: a single coordinator
// drives lock-step rounds over CSR-flattened topology tables, a bounded
// worker pool executes node programs in chunks, and all routing, validation
// and tracing happen serially in node-index order so the observable
// behaviour — Stats, tracer event sequence, error, and every node's final
// state — is byte-identical to the legacy goroutine-per-node engine
// (simnettest.RunChannel, the test-only reference) at any worker count.
//
// Determinism argument. Three things could make a parallel round engine
// schedule-dependent, and each is pinned:
//
//   - randomness: node v's private generator is the v-th Split of the root
//     generator, assigned during Init before any worker starts, exactly as
//     the legacy engine does; workers never draw from a shared stream;
//   - tracer/stats order: workers only write node v's (out, done) into the
//     indexed slot results[v]; the coordinator then walks the active set in
//     ascending node order to validate, route, trace and account, so the
//     event sequence is a pure function of the round's results;
//   - memory: each delivered payload is copied into the round's arena
//     (copy-on-deliver), so a sender reusing or mutating its outbox buffer
//     after Round returns cannot corrupt a neighbor's inbox.
//
// Steady-state allocation. The per-topology CSR tables (adjacency, reverse
// ports) are compiled once and cached across runs; inboxes are
// double-buffered arenas sized by total degree, so routing appends never
// allocate once the payload arenas have grown to the peak round volume; the
// duplicate-port check is a degree-bounded bitset cleared by re-walking the
// node's outbox; and the active set is compacted in place so late rounds
// only touch live nodes.

// topology is the CSR-flattened form of a graph: node v's ports are the
// slots start[v] … start[v+1]−1 of the flat edge arrays.
type topology struct {
	n     int
	start []int32 // len n+1: port-slot offsets
	dst   []int32 // per directed edge: the neighbor vertex
	// revPort is, per directed edge (v, port)→u, the port index of v in
	// u's neighbor list — where a message sent by v on that port lands.
	revPort []int32
	maxDeg  int
}

// edges returns the directed edge count (Σ degrees).
func (t *topology) edges() int { return int(t.start[t.n]) }

// degree returns node v's degree.
func (t *topology) degree(v int) int { return int(t.start[v+1] - t.start[v]) }

// compileTopology builds the CSR tables for g.
func compileTopology(g *graph.Graph) *topology {
	n := g.N()
	t := &topology{n: n, start: make([]int32, n+1)}
	total := 0
	for v := 0; v < n; v++ {
		t.start[v] = int32(total)
		d := g.Degree(v)
		total += d
		if d > t.maxDeg {
			t.maxDeg = d
		}
	}
	t.start[n] = int32(total)
	t.dst = make([]int32, total)
	t.revPort = make([]int32, total)
	// portAt[u<<32|w] is w's port index in u's neighbor list.
	portAt := make(map[uint64]int32, total)
	for u := 0; u < n; u++ {
		for i, w := range g.Neighbors(u) {
			portAt[uint64(u)<<32|uint64(uint32(w))] = int32(i)
		}
	}
	for v := 0; v < n; v++ {
		base := t.start[v]
		for i, u := range g.Neighbors(v) {
			t.dst[base+int32(i)] = int32(u)
			t.revPort[base+int32(i)] = portAt[uint64(u)<<32|uint64(uint32(v))]
		}
	}
	return t
}

// topoCache memoizes compiled topologies per *graph.Graph so trial loops
// (thousands of Runs on one graph) compile the CSR tables once. Entries are
// validated against the graph's current shape, so a graph mutated after
// caching is recompiled rather than simulated stale. The cache is bounded:
// when it exceeds topoCacheLimit distinct graphs it is reset wholesale,
// which keeps long fuzzing sessions from accumulating dead tables.
const topoCacheLimit = 64

var (
	topoMu    sync.RWMutex
	topoCache = map[*graph.Graph]*topology{}
)

func topologyFor(g *graph.Graph) *topology {
	topoMu.RLock()
	t, ok := topoCache[g]
	topoMu.RUnlock()
	if ok && t.n == g.N() && t.edges() == 2*g.NumEdges() {
		return t
	}
	t = compileTopology(g)
	topoMu.Lock()
	if len(topoCache) >= topoCacheLimit {
		topoCache = map[*graph.Graph]*topology{}
	}
	topoCache[g] = t
	topoMu.Unlock()
	return t
}

// nodeResult is one node's round output, written into an indexed slot by
// whichever worker executed the node.
type nodeResult struct {
	out  []PortMessage
	done bool
}

// engine is the per-Run state of the flat round engine.
type engine struct {
	tp    *topology
	nodes []Node
	cfg   Config

	// Double-buffered inbox arenas: cur is consumed this round, next is
	// filled by routing. Slot start[v]+i holds v's i-th delivered message.
	cur, next       []PortMessage
	curCnt, nextCnt []int32
	// payNext is the copy-on-deliver payload arena for the round being
	// routed; payCur backs the inboxes currently being consumed.
	payCur, payNext []byte

	results    []nodeResult
	active     []bool
	activeList []int32
	dupBits    []uint64 // degree-bounded duplicate-port bitset

	workers int
}

// run executes the simulation; see Run for the contract.
func (e *engine) run() (Stats, error) {
	tp, cfg := e.tp, e.cfg
	k := tp.n
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 10*k + 1000
	}

	var stats Stats
	for stats.Rounds < maxRounds && len(e.activeList) > 0 {
		stats.Rounds++
		if cfg.Tracer != nil {
			cfg.Tracer.OnRoundStart(stats.Rounds, len(e.activeList))
		}
		e.execRound()
		// Reset the next-round buffers, then route serially in node order.
		for i := range e.nextCnt {
			e.nextCnt[i] = 0
		}
		e.payNext = e.payNext[:0]
		newActive := e.activeList[:0]
		for _, v32 := range e.activeList {
			v := int(v32)
			res := &e.results[v]
			if res.done {
				e.active[v] = false
				if cfg.Tracer != nil {
					cfg.Tracer.OnHalt(stats.Rounds, v)
				}
			} else {
				newActive = append(newActive, v32)
			}
			if err := e.route(v, res.out, &stats); err != nil {
				return stats, err
			}
			res.out = nil
		}
		e.activeList = newActive
		e.cur, e.next = e.next, e.cur
		e.curCnt, e.nextCnt = e.nextCnt, e.curCnt
		e.payCur, e.payNext = e.payNext, e.payCur
	}
	if remaining := len(e.activeList); remaining > 0 {
		return stats, fmt.Errorf("%w: %d nodes still active after %d rounds", ErrMaxRounds, remaining, stats.Rounds)
	}
	if o, ok := cfg.Tracer.(RunEndObserver); ok {
		o.OnRunEnd(stats)
	}
	return stats, nil
}

// execRound runs Round on every active node, in parallel chunks when the
// pool has more than one worker, writing into the indexed result slots.
func (e *engine) execRound() {
	n := len(e.activeList)
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for _, v := range e.activeList {
			e.runNode(int(v))
		}
		return
	}
	chunk := engineChunk(n, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for _, v := range e.activeList[lo:hi] {
					e.runNode(int(v))
				}
			}
		}()
	}
	wg.Wait()
}

// engineChunk picks the work-stealing grain: enough chunks per worker that
// an expensive node cannot strand the pool, large enough to amortize the
// atomic claim.
func engineChunk(n, workers int) int {
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 256 {
		chunk = 256
	}
	return chunk
}

// runNode executes node v's round on its current inbox slice.
func (e *engine) runNode(v int) {
	base := e.tp.start[v]
	in := e.cur[base : base+int32(e.curCnt[v])]
	out, done := e.nodes[v].Round(in)
	e.results[v] = nodeResult{out: out, done: done}
}

// route validates node v's outbox and delivers it into the next-round
// arenas, updating stats and firing the tracer. Validation order (invalid
// port, duplicate port, bandwidth) and partial accounting on error match
// the legacy engine exactly.
func (e *engine) route(v int, out []PortMessage, stats *Stats) error {
	tp, cfg := e.tp, e.cfg
	deg := tp.degree(v)
	routed := 0
	var err error
	for _, m := range out {
		if m.Port < 0 || m.Port >= deg {
			err = fmt.Errorf("simnet: node %d sent on invalid port %d", v, m.Port)
			break
		}
		if e.dupBits[m.Port>>6]&(1<<(uint(m.Port)&63)) != 0 {
			err = fmt.Errorf("simnet: node %d sent twice on port %d in one round", v, m.Port)
			break
		}
		e.dupBits[m.Port>>6] |= 1 << (uint(m.Port) & 63)
		routed++
		if cfg.MaxBytesPerMessage > 0 && len(m.Payload) > cfg.MaxBytesPerMessage {
			err = fmt.Errorf("%w: node %d sent %d bytes (limit %d)",
				ErrBandwidthExceeded, v, len(m.Payload), cfg.MaxBytesPerMessage)
			break
		}
		ei := tp.start[v] + int32(m.Port)
		d := tp.dst[ei]
		if !e.active[d] {
			continue // delivered into the void: dst already halted
		}
		// Copy-on-deliver: the receiver gets its own bytes, so the sender
		// may reuse its payload buffer the moment Round returns.
		off := len(e.payNext)
		e.payNext = append(e.payNext, m.Payload...)
		payload := e.payNext[off : off+len(m.Payload) : off+len(m.Payload)]
		slot := tp.start[d] + e.nextCnt[d]
		e.next[slot] = PortMessage{Port: int(tp.revPort[ei]), Payload: payload}
		e.nextCnt[d]++
		if cfg.Tracer != nil {
			cfg.Tracer.OnMessage(stats.Rounds, v, int(d), payload)
		}
		stats.Messages++
		stats.Bytes += int64(len(m.Payload))
		if len(m.Payload) > stats.MaxMessageBytes {
			stats.MaxMessageBytes = len(m.Payload)
		}
	}
	// Clear the duplicate bitset by re-walking the ports that set it.
	for _, m := range out[:routed] {
		e.dupBits[m.Port>>6] &^= 1 << (uint(m.Port) & 63)
	}
	return err
}

// runFlat is the Run implementation on the flat engine.
func runFlat(g *graph.Graph, nodes []Node, cfg Config) (Stats, error) {
	k := g.N()
	if len(nodes) != k {
		return Stats{}, fmt.Errorf("simnet: %d nodes for %d vertices", len(nodes), k)
	}
	tp := topologyFor(g)
	root := rng.New(cfg.Seed)
	for v := 0; v < k; v++ {
		nodes[v].Init(&Context{
			ID:       v,
			Degree:   tp.degree(v),
			NumNodes: k,
			RNG:      root.Split(),
		})
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &engine{
		tp:         tp,
		nodes:      nodes,
		cfg:        cfg,
		cur:        make([]PortMessage, tp.edges()),
		next:       make([]PortMessage, tp.edges()),
		curCnt:     make([]int32, k),
		nextCnt:    make([]int32, k),
		results:    make([]nodeResult, k),
		active:     make([]bool, k),
		activeList: make([]int32, k),
		dupBits:    make([]uint64, (tp.maxDeg+64)/64+1),
		workers:    workers,
	}
	for v := 0; v < k; v++ {
		e.active[v] = true
		e.activeList[v] = int32(v)
	}
	return e.run()
}
