// Package simnettest holds the simulator's reference engine, RunChannel:
// the legacy goroutine-per-node coordinator that simnet.Run is held
// byte-identical to. Only tests and the …ChannelRef benchmarks import it;
// library code runs simnet.Run.
package simnettest

import (
	"fmt"
	"sync"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/simnet"
)

// RunChannel is the legacy goroutine-per-node engine: every node runs in
// its own goroutine and a coordinator exchanges inbox/outbox pairs over
// channels each round. It is the differential-testing reference for
// simnet.Run and the BenchmarkRunChannelRef baseline. Unlike Run, delivered
// payloads alias the sender's slices, and Config.Workers is ignored.
func RunChannel(g *graph.Graph, nodes []simnet.Node, cfg simnet.Config) (simnet.Stats, error) {
	k := g.N()
	if len(nodes) != k {
		return simnet.Stats{}, fmt.Errorf("simnet: %d nodes for %d vertices", len(nodes), k)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 10*k + 1000
	}

	root := rng.New(cfg.Seed)
	workers := make([]*worker, k)
	for v := 0; v < k; v++ {
		w := &worker{
			node:  nodes[v],
			in:    make(chan []simnet.PortMessage, 1),
			out:   make(chan roundResult, 1),
			index: v,
		}
		ctx := &simnet.Context{
			ID:       v,
			Degree:   g.Degree(v),
			NumNodes: k,
			RNG:      root.Split(),
		}
		nodes[v].Init(ctx)
		workers[v] = w
	}

	var wg sync.WaitGroup
	wg.Add(k)
	for _, w := range workers {
		go func(w *worker) {
			defer wg.Done()
			w.loop()
		}(w)
	}
	defer func() {
		for _, w := range workers {
			close(w.in)
		}
		wg.Wait()
	}()

	// Precompute reverse port lookup: ports[v][u] is u's port index at v.
	ports := make([]map[int]int, k)
	for v := 0; v < k; v++ {
		nb := g.Neighbors(v)
		ports[v] = make(map[int]int, len(nb))
		for i, u := range nb {
			ports[v][u] = i
		}
	}

	var stats simnet.Stats
	inboxes := make([][]simnet.PortMessage, k)
	active := make([]bool, k)
	remaining := k
	for v := range active {
		active[v] = true
	}

	for stats.Rounds < maxRounds && remaining > 0 {
		stats.Rounds++
		if cfg.Tracer != nil {
			cfg.Tracer.OnRoundStart(stats.Rounds, remaining)
		}
		// Dispatch inboxes to active nodes.
		for v, w := range workers {
			if !active[v] {
				continue
			}
			w.in <- inboxes[v]
			inboxes[v] = nil
		}
		// Collect outboxes and route.
		for v, w := range workers {
			if !active[v] {
				continue
			}
			res := <-w.out
			if res.done {
				active[v] = false
				remaining--
				if cfg.Tracer != nil {
					cfg.Tracer.OnHalt(stats.Rounds, v)
				}
			}
			seen := make(map[int]bool, len(res.out))
			for _, m := range res.out {
				if m.Port < 0 || m.Port >= g.Degree(v) {
					return stats, fmt.Errorf("simnet: node %d sent on invalid port %d", v, m.Port)
				}
				if seen[m.Port] {
					return stats, fmt.Errorf("simnet: node %d sent twice on port %d in one round", v, m.Port)
				}
				seen[m.Port] = true
				if cfg.MaxBytesPerMessage > 0 && len(m.Payload) > cfg.MaxBytesPerMessage {
					return stats, fmt.Errorf("%w: node %d sent %d bytes (limit %d)",
						simnet.ErrBandwidthExceeded, v, len(m.Payload), cfg.MaxBytesPerMessage)
				}
				dst := g.Neighbors(v)[m.Port]
				if !active[dst] {
					continue // delivered into the void: dst already halted
				}
				dstPort := ports[dst][v]
				inboxes[dst] = append(inboxes[dst], simnet.PortMessage{Port: dstPort, Payload: m.Payload})
				if cfg.Tracer != nil {
					cfg.Tracer.OnMessage(stats.Rounds, v, dst, m.Payload)
				}
				stats.Messages++
				stats.Bytes += int64(len(m.Payload))
				if len(m.Payload) > stats.MaxMessageBytes {
					stats.MaxMessageBytes = len(m.Payload)
				}
			}
		}
	}
	if remaining > 0 {
		return stats, fmt.Errorf("%w: %d nodes still active after %d rounds", simnet.ErrMaxRounds, remaining, stats.Rounds)
	}
	if o, ok := cfg.Tracer.(simnet.RunEndObserver); ok {
		o.OnRunEnd(stats)
	}
	return stats, nil
}

type roundResult struct {
	out  []simnet.PortMessage
	done bool
}

type worker struct {
	node  simnet.Node
	in    chan []simnet.PortMessage
	out   chan roundResult
	index int
}

func (w *worker) loop() {
	for in := range w.in {
		out, done := w.node.Round(in)
		w.out <- roundResult{out: out, done: done}
		if done {
			return
		}
	}
}
