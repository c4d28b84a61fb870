package simnet_test

import (
	"testing"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/simnet"
)

// scripted is a fuzz-driven node program: its per-round behaviour (which
// ports to use, payload sizes, lifetime, and an optional protocol
// violation) derives from the fuzzer's bytes and the node's private RNG,
// so any divergence between the two engines — including on error paths —
// is a pure engine bug.
type scripted struct {
	ctx      *simnet.Context
	lifetime int
	sendMask byte
	badRound int // 1-based round to sin on; 0 = law-abiding
	badKind  byte
	rounds   int
	sum      uint64
}

func (s *scripted) Init(ctx *simnet.Context) {
	s.ctx = ctx
	s.lifetime = 1 + int(ctx.RNG.Uint64n(5))
}

func (s *scripted) Round(in []simnet.PortMessage) ([]simnet.PortMessage, bool) {
	for _, m := range in {
		s.sum = s.sum*263 + uint64(m.Port) + 1
		for _, b := range m.Payload {
			s.sum = s.sum*31 + uint64(b)
		}
	}
	s.rounds++
	if s.rounds == s.badRound {
		switch s.badKind % 3 {
		case 0: // invalid port
			return []simnet.PortMessage{{Port: s.ctx.Degree + 3, Payload: []byte{1}}}, false
		case 1: // duplicate port
			if s.ctx.Degree > 0 {
				return []simnet.PortMessage{
					{Port: 0, Payload: []byte{1}},
					{Port: 0, Payload: []byte{2}},
				}, false
			}
		case 2: // oversized payload
			if s.ctx.Degree > 0 {
				return []simnet.PortMessage{{Port: 0, Payload: make([]byte, 64)}}, false
			}
		}
	}
	if s.rounds > s.lifetime {
		return nil, true
	}
	var out []simnet.PortMessage
	for p := 0; p < s.ctx.Degree; p++ {
		draw := s.ctx.RNG.Uint64()
		if s.sendMask&(1<<(uint(p)%8)) == 0 && draw%4 != 0 {
			continue
		}
		payload := make([]byte, 1+draw%5)
		for i := range payload {
			payload[i] = byte(draw >> (7 * uint(i)))
		}
		out = append(out, simnet.PortMessage{Port: p, Payload: payload})
	}
	return out, false
}

// fuzzGraph builds a small deterministic graph from fuzz bytes: a spanning
// path (keeping every node reachable) plus extra edges from the bits.
func fuzzGraph(n int, bits []byte) *graph.Graph {
	g := graph.New(n, "fuzz")
	for i := 0; i+1 < n; i++ {
		_ = g.AddEdge(i, i+1)
	}
	bi := 0
	for u := 0; u < n; u++ {
		for v := u + 2; v < n; v++ {
			if len(bits) == 0 {
				return g
			}
			if bits[bi%len(bits)]&(1<<(uint(bi)%8)) != 0 {
				_ = g.AddEdge(u, v)
			}
			bi++
		}
	}
	return g
}

// FuzzEngineEquivalence feeds random small graphs and node scripts —
// including deliberate protocol violations — through both engines and
// requires identical stats, traces and errors at several worker counts.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(uint8(5), uint64(1), []byte{0x5a}, uint8(0), uint8(0))
	f.Add(uint8(8), uint64(42), []byte{0xff, 0x0f}, uint8(2), uint8(1))
	f.Add(uint8(3), uint64(7), []byte{}, uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, nRaw uint8, seed uint64, edgeBits []byte, badRound, badKind uint8) {
		n := 2 + int(nRaw%7) // 2..8 nodes
		g := fuzzGraph(n, edgeBits)
		mk := func() simnet.Node {
			return &scripted{
				sendMask: byte(seed),
				badRound: int(badRound % 8), // 0 disables
				badKind:  badKind,
			}
		}
		cfg := simnet.Config{MaxBytesPerMessage: 16, MaxRounds: 48, Seed: seed}
		flat, legacy, ftr, ltr, ferr, lerr := runEngines(g, mk, cfg)
		if (ferr == nil) != (lerr == nil) || (ferr != nil && ferr.Error() != lerr.Error()) {
			t.Fatalf("errors differ: flat=%v legacy=%v", ferr, lerr)
		}
		if flat != legacy {
			t.Fatalf("stats differ: flat=%+v legacy=%+v", flat, legacy)
		}
		if len(ftr.events) != len(ltr.events) {
			t.Fatalf("trace lengths differ: %d vs %d", len(ftr.events), len(ltr.events))
		}
		for i := range ftr.events {
			if ftr.events[i] != ltr.events[i] {
				t.Fatalf("trace diverges at %d: %q vs %q", i, ftr.events[i], ltr.events[i])
			}
		}
		// Worker-count invariance of the flat engine on the same script.
		for _, workers := range []int{2, 5} {
			tr := &recordingTracer{}
			nodes := make([]simnet.Node, g.N())
			for i := range nodes {
				nodes[i] = mk()
			}
			wcfg := cfg
			wcfg.Tracer, wcfg.Workers = tr, workers
			stats, err := simnet.Run(g, nodes, wcfg)
			if (err == nil) != (ferr == nil) || (err != nil && err.Error() != ferr.Error()) {
				t.Fatalf("workers=%d error %v, want %v", workers, err, ferr)
			}
			if stats != flat {
				t.Fatalf("workers=%d stats %+v, want %+v", workers, stats, flat)
			}
			for i := range tr.events {
				if tr.events[i] != ftr.events[i] {
					t.Fatalf("workers=%d trace diverges at %d: %q vs %q", workers, i, tr.events[i], ftr.events[i])
				}
			}
		}
	})
}
