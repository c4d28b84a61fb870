package simnet_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/simnet"
	"github.com/unifdist/unifdist/internal/simnet/simnettest"
)

// recordingTracer captures the full event stream as comparable strings, so
// differential tests can assert the flat engine reproduces the legacy
// engine's trace byte for byte (order included).
type recordingTracer struct {
	events []string
}

func (r *recordingTracer) OnRoundStart(round, active int) {
	r.events = append(r.events, fmt.Sprintf("round %d active=%d", round, active))
}

func (r *recordingTracer) OnMessage(round, from, to int, payload []byte) {
	r.events = append(r.events, fmt.Sprintf("msg r=%d %d->%d %x", round, from, to, payload))
}

func (r *recordingTracer) OnHalt(round, node int) {
	r.events = append(r.events, fmt.Sprintf("halt r=%d node=%d", round, node))
}

func (r *recordingTracer) OnRunEnd(stats simnet.Stats) {
	r.events = append(r.events, fmt.Sprintf("end rounds=%d msgs=%d bytes=%d max=%d",
		stats.Rounds, stats.Messages, stats.Bytes, stats.MaxMessageBytes))
}

// chatter is a randomized node program exercising every engine code path:
// each round it sends payloads derived from its private RNG on a
// pseudo-random subset of ports, then halts after a per-node random number
// of rounds. Its behaviour is a pure function of the Context, so two
// engines seeding node RNGs identically must produce identical executions.
type chatter struct {
	ctx      *simnet.Context
	lifetime int
	rounds   int
	received int
	checksum uint64
}

func (c *chatter) Init(ctx *simnet.Context) {
	c.ctx = ctx
	c.lifetime = 1 + int(ctx.RNG.Uint64n(6))
}

func (c *chatter) Round(in []simnet.PortMessage) ([]simnet.PortMessage, bool) {
	for _, m := range in {
		c.received++
		for _, b := range m.Payload {
			c.checksum = c.checksum*131 + uint64(b) + uint64(m.Port)
		}
	}
	c.rounds++
	if c.rounds > c.lifetime {
		return nil, true
	}
	var out []simnet.PortMessage
	for p := 0; p < c.ctx.Degree; p++ {
		draw := c.ctx.RNG.Uint64()
		if draw%3 == 0 {
			continue // skip this port
		}
		payload := make([]byte, 1+draw%7)
		for i := range payload {
			payload[i] = byte(draw >> (8 * uint(i%8)))
		}
		out = append(out, simnet.PortMessage{Port: p, Payload: payload})
	}
	return out, false
}

// diffTopologies is the topology matrix the differential tests sweep, per
// the engine's acceptance criteria: line, ring, star, grid, tree, random.
func diffTopologies() []*graph.Graph {
	return []*graph.Graph{
		graph.NewLine(13),
		graph.NewRing(11),
		graph.NewStar(9),
		graph.NewGrid(4, 5),
		graph.NewBalancedTree(15, 2),
		graph.NewRandomConnected(24, 0.12, 7),
	}
}

// runEngines executes the same program on both engines (fresh node
// instances each, same seed) and returns their stats, traces and errors.
func runEngines(g *graph.Graph, mk func() simnet.Node, cfg simnet.Config) (flat, legacy simnet.Stats, flatTr, legacyTr *recordingTracer, flatErr, legacyErr error) {
	build := func() []simnet.Node {
		nodes := make([]simnet.Node, g.N())
		for i := range nodes {
			nodes[i] = mk()
		}
		return nodes
	}
	flatTr, legacyTr = &recordingTracer{}, &recordingTracer{}
	fcfg, lcfg := cfg, cfg
	fcfg.Tracer, lcfg.Tracer = flatTr, legacyTr
	flat, flatErr = simnet.Run(g, build(), fcfg)
	legacy, legacyErr = simnettest.RunChannel(g, build(), lcfg)
	return
}

func compareRuns(t *testing.T, label string, flat, legacy simnet.Stats, flatTr, legacyTr *recordingTracer, flatErr, legacyErr error) {
	t.Helper()
	if (flatErr == nil) != (legacyErr == nil) ||
		(flatErr != nil && flatErr.Error() != legacyErr.Error()) {
		t.Fatalf("%s: errors differ: flat=%v legacy=%v", label, flatErr, legacyErr)
	}
	if flat != legacy {
		t.Errorf("%s: stats differ: flat=%+v legacy=%+v", label, flat, legacy)
	}
	if len(flatTr.events) != len(legacyTr.events) {
		t.Fatalf("%s: trace lengths differ: flat=%d legacy=%d", label, len(flatTr.events), len(legacyTr.events))
	}
	for i := range flatTr.events {
		if flatTr.events[i] != legacyTr.events[i] {
			t.Fatalf("%s: trace diverges at event %d: flat=%q legacy=%q",
				label, i, flatTr.events[i], legacyTr.events[i])
		}
	}
}

// TestEngineMatchesChannelRef is the differential pin: on every topology in
// the matrix, with both a deterministic flood and the randomized chatter
// program, the flat engine must reproduce the legacy channel engine's
// Stats and complete tracer event sequence.
func TestEngineMatchesChannelRef(t *testing.T) {
	for _, g := range diffTopologies() {
		d := 1
		if g.IsConnected() {
			d = g.Diameter()
		}
		programs := []struct {
			name string
			mk   func() simnet.Node
		}{
			{"flood", func() simnet.Node { return &floodMax{limit: d + 1} }},
			{"chatter", func() simnet.Node { return &chatter{} }},
		}
		for _, prog := range programs {
			t.Run(g.Name()+"/"+prog.name, func(t *testing.T) {
				for _, seed := range []uint64{1, 2, 42} {
					cfg := simnet.Config{MaxBytesPerMessage: 16, Seed: seed}
					flat, legacy, ftr, ltr, ferr, lerr := runEngines(g, prog.mk, cfg)
					compareRuns(t, fmt.Sprintf("seed=%d", seed), flat, legacy, ftr, ltr, ferr, lerr)
				}
			})
		}
	}
}

// TestEngineMatchesChannelRefOnErrors pins the error paths: invalid port,
// duplicate port, bandwidth violation and the round limit must surface the
// same error text and the same partially accumulated stats on both engines.
func TestEngineMatchesChannelRefOnErrors(t *testing.T) {
	cases := []struct {
		name string
		mk   func() simnet.Node
		cfg  simnet.Config
	}{
		{"invalid-port", func() simnet.Node { return badPort{} }, simnet.Config{Seed: 1}},
		{"duplicate-port", func() simnet.Node { return doubleSend{} }, simnet.Config{Seed: 1}},
		{"bandwidth", func() simnet.Node { return &oversized{} }, simnet.Config{MaxBytesPerMessage: 16, Seed: 1}},
		{"max-rounds", func() simnet.Node { return forever{} }, simnet.Config{MaxRounds: 7, Seed: 1}},
	}
	g := graph.NewRing(6)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flat, legacy, ftr, ltr, ferr, lerr := runEngines(g, tc.mk, tc.cfg)
			if ferr == nil {
				t.Fatalf("expected an error from %s", tc.name)
			}
			compareRuns(t, tc.name, flat, legacy, ftr, ltr, ferr, lerr)
		})
	}
}

// TestEngineWorkerCountInvariant pins the tentpole guarantee directly: the
// flat engine's trace and stats are byte-identical at Workers ∈ {1, 2, 8}.
func TestEngineWorkerCountInvariant(t *testing.T) {
	for _, g := range diffTopologies() {
		t.Run(g.Name(), func(t *testing.T) {
			var want *recordingTracer
			var wantStats simnet.Stats
			for _, workers := range []int{1, 2, 8} {
				tr := &recordingTracer{}
				nodes := make([]simnet.Node, g.N())
				for i := range nodes {
					nodes[i] = &chatter{}
				}
				stats, err := simnet.Run(g, nodes, simnet.Config{MaxBytesPerMessage: 16, Seed: 9, Tracer: tr, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want, wantStats = tr, stats
					continue
				}
				if stats != wantStats {
					t.Errorf("workers=%d stats differ: %+v vs %+v", workers, stats, wantStats)
				}
				if len(tr.events) != len(want.events) {
					t.Fatalf("workers=%d trace length %d, want %d", workers, len(tr.events), len(want.events))
				}
				for i := range tr.events {
					if tr.events[i] != want.events[i] {
						t.Fatalf("workers=%d trace diverges at %d: %q vs %q", workers, i, tr.events[i], want.events[i])
					}
				}
			}
		})
	}
}

// mutator sends a payload, then mutates its own buffer after the round —
// the aliasing hazard the copy-on-deliver contract closes.
type mutator struct {
	ctx    *simnet.Context
	buf    []byte
	rounds int
}

func (m *mutator) Init(ctx *simnet.Context) { m.ctx = ctx; m.buf = []byte{0xAA, 0xBB} }
func (m *mutator) Round(in []simnet.PortMessage) ([]simnet.PortMessage, bool) {
	m.rounds++
	switch m.rounds {
	case 1:
		return []simnet.PortMessage{{Port: 0, Payload: m.buf}}, false
	case 2:
		// The message is in flight/delivered; scribble over the buffer.
		m.buf[0], m.buf[1] = 0xDE, 0xAD
		return nil, false
	}
	return nil, true
}

// receiver records the payload bytes it observes, and scribbles on them
// afterwards to prove receiver-side mutation cannot leak anywhere either.
type receiver struct {
	got []byte
}

func (r *receiver) Init(*simnet.Context) {}
func (r *receiver) Round(in []simnet.PortMessage) ([]simnet.PortMessage, bool) {
	for _, m := range in {
		r.got = append(r.got, m.Payload...)
		for i := range m.Payload {
			m.Payload[i] = 0xFF
		}
	}
	return nil, len(r.got) > 0
}

// TestPayloadCopiedOnDeliver pins the copy-on-deliver contract: the
// receiver must observe the bytes as sent even though the sender mutates
// its buffer after Round returns.
func TestPayloadCopiedOnDeliver(t *testing.T) {
	g := graph.NewLine(2)
	rcv := &receiver{}
	if _, err := simnet.Run(g, []simnet.Node{&mutator{}, rcv}, simnet.Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rcv.got, []byte{0xAA, 0xBB}) {
		t.Fatalf("receiver saw %x, want aabb: sender mutation leaked into the inbox", rcv.got)
	}
}

func benchFlood(b *testing.B, run func(*graph.Graph, []simnet.Node, simnet.Config) (simnet.Stats, error)) {
	g := graph.NewRing(100)
	d := g.Diameter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes := make([]simnet.Node, g.N())
		for j := range nodes {
			nodes[j] = &floodMax{limit: d + 1}
		}
		if _, err := run(g, nodes, simnet.Config{MaxBytesPerMessage: 16, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFlat measures the flat engine on the flood ring.
func BenchmarkRunFlat(b *testing.B) { benchFlood(b, simnet.Run) }

// BenchmarkRunChannelRef is the retained legacy engine on the same
// workload — the before/after anchor for the flat-engine rewrite.
func BenchmarkRunChannelRef(b *testing.B) { benchFlood(b, simnettest.RunChannel) }
