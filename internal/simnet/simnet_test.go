package simnet_test

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/simnet"
)

// floodMax floods the maximum ID for a fixed number of rounds, then halts.
// After g.Diameter() rounds every node must know the global maximum.
type floodMax struct {
	ctx    *simnet.Context
	best   int
	rounds int
	limit  int
}

func (f *floodMax) Init(ctx *simnet.Context) {
	f.ctx = ctx
	f.best = ctx.ID
}

func (f *floodMax) Round(in []simnet.PortMessage) ([]simnet.PortMessage, bool) {
	for _, m := range in {
		if v := int(binary.BigEndian.Uint64(m.Payload)); v > f.best {
			f.best = v
		}
	}
	f.rounds++
	if f.rounds > f.limit {
		return nil, true
	}
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, uint64(f.best))
	out := make([]simnet.PortMessage, f.ctx.Degree)
	for p := 0; p < f.ctx.Degree; p++ {
		out[p] = simnet.PortMessage{Port: p, Payload: payload}
	}
	return out, false
}

func TestFloodMaxConverges(t *testing.T) {
	topologies := []*graph.Graph{
		graph.NewLine(12),
		graph.NewRing(9),
		graph.NewStar(8),
		graph.NewGrid(4, 5),
		graph.NewRandomConnected(30, 0.1, 5),
	}
	for _, g := range topologies {
		t.Run(g.Name(), func(t *testing.T) {
			d := g.Diameter()
			nodes := make([]simnet.Node, g.N())
			impls := make([]*floodMax, g.N())
			for i := range nodes {
				impls[i] = &floodMax{limit: d + 1}
				nodes[i] = impls[i]
			}
			stats, err := simnet.Run(g, nodes, simnet.Config{MaxBytesPerMessage: 16, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := g.N() - 1 // max vertex index
			for i, impl := range impls {
				if impl.best != want {
					t.Fatalf("node %d learned max %d, want %d", i, impl.best, want)
				}
			}
			if stats.Rounds != d+2 {
				t.Errorf("rounds = %d, want %d", stats.Rounds, d+2)
			}
			if stats.MaxMessageBytes != 8 {
				t.Errorf("max message bytes = %d, want 8", stats.MaxMessageBytes)
			}
		})
	}
}

// silent halts immediately without sending.
type silent struct{}

func (silent) Init(*simnet.Context)                                    {}
func (silent) Round([]simnet.PortMessage) ([]simnet.PortMessage, bool) { return nil, true }

// oversized sends a payload larger than any CONGEST limit.
type oversized struct{ ctx *simnet.Context }

func (o *oversized) Init(ctx *simnet.Context) { o.ctx = ctx }
func (o *oversized) Round([]simnet.PortMessage) ([]simnet.PortMessage, bool) {
	if o.ctx.Degree == 0 {
		return nil, true
	}
	return []simnet.PortMessage{{Port: 0, Payload: make([]byte, 1024)}}, true
}

func TestBandwidthEnforced(t *testing.T) {
	g := graph.NewLine(2)
	_, err := simnet.Run(g, []simnet.Node{&oversized{}, silent{}}, simnet.Config{MaxBytesPerMessage: 16, Seed: 1})
	if !errors.Is(err, simnet.ErrBandwidthExceeded) {
		t.Fatalf("err = %v, want ErrBandwidthExceeded", err)
	}
}

func TestBandwidthUnlimitedInLOCAL(t *testing.T) {
	g := graph.NewLine(2)
	_, err := simnet.Run(g, []simnet.Node{&oversized{}, silent{}}, simnet.Config{Seed: 1})
	if err != nil {
		t.Fatalf("LOCAL model rejected big message: %v", err)
	}
}

// badPort sends on a port it does not have.
type badPort struct{}

func (badPort) Init(*simnet.Context) {}
func (badPort) Round([]simnet.PortMessage) ([]simnet.PortMessage, bool) {
	return []simnet.PortMessage{{Port: 5, Payload: []byte{1}}}, true
}

func TestInvalidPortRejected(t *testing.T) {
	g := graph.NewLine(2)
	_, err := simnet.Run(g, []simnet.Node{badPort{}, silent{}}, simnet.Config{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "invalid port") {
		t.Fatalf("err = %v, want invalid port", err)
	}
}

// doubleSend sends twice on port 0 in one round.
type doubleSend struct{}

func (doubleSend) Init(*simnet.Context) {}
func (doubleSend) Round([]simnet.PortMessage) ([]simnet.PortMessage, bool) {
	return []simnet.PortMessage{
		{Port: 0, Payload: []byte{1}},
		{Port: 0, Payload: []byte{2}},
	}, true
}

func TestDuplicatePortRejected(t *testing.T) {
	g := graph.NewLine(2)
	_, err := simnet.Run(g, []simnet.Node{doubleSend{}, silent{}}, simnet.Config{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "twice on port") {
		t.Fatalf("err = %v, want duplicate-port error", err)
	}
}

// forever never halts.
type forever struct{}

func (forever) Init(*simnet.Context)                                    {}
func (forever) Round([]simnet.PortMessage) ([]simnet.PortMessage, bool) { return nil, false }

func TestMaxRoundsAborts(t *testing.T) {
	g := graph.NewLine(3)
	_, err := simnet.Run(g, []simnet.Node{forever{}, forever{}, forever{}}, simnet.Config{MaxRounds: 10, Seed: 1})
	if !errors.Is(err, simnet.ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestNodeCountMismatch(t *testing.T) {
	g := graph.NewLine(3)
	if _, err := simnet.Run(g, []simnet.Node{silent{}}, simnet.Config{Seed: 1}); err == nil {
		t.Fatal("node/vertex mismatch accepted")
	}
}

// pingPong node 0 sends one ping; node 1 replies; both count messages.
type pingPong struct {
	ctx      *simnet.Context
	received int
	starter  bool
	rounds   int
}

func (p *pingPong) Init(ctx *simnet.Context) { p.ctx = ctx }
func (p *pingPong) Round(in []simnet.PortMessage) ([]simnet.PortMessage, bool) {
	p.received += len(in)
	p.rounds++
	switch {
	case p.starter && p.rounds == 1:
		return []simnet.PortMessage{{Port: 0, Payload: []byte("ping")}}, false
	case !p.starter && p.received > 0:
		return []simnet.PortMessage{{Port: 0, Payload: []byte("pong")}}, true
	case p.starter && p.received > 0:
		return nil, true
	}
	return nil, false
}

func TestMessageAccounting(t *testing.T) {
	g := graph.NewLine(2)
	a := &pingPong{starter: true}
	b := &pingPong{}
	stats, err := simnet.Run(g, []simnet.Node{a, b}, simnet.Config{MaxBytesPerMessage: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 2 {
		t.Errorf("messages = %d, want 2", stats.Messages)
	}
	if stats.Bytes != 8 {
		t.Errorf("bytes = %d, want 8", stats.Bytes)
	}
	if a.received != 1 || b.received != 1 {
		t.Errorf("received: a=%d b=%d, want 1 each", a.received, b.received)
	}
}

// rngProbe records the first random draw of each node.
type rngProbe struct {
	draw uint64
}

func (r *rngProbe) Init(ctx *simnet.Context) { r.draw = ctx.RNG.Uint64() }
func (r *rngProbe) Round([]simnet.PortMessage) ([]simnet.PortMessage, bool) {
	return nil, true
}

func TestPrivateRNGsDeterministicAndDistinct(t *testing.T) {
	run := func() []uint64 {
		g := graph.NewRing(5)
		nodes := make([]simnet.Node, 5)
		probes := make([]*rngProbe, 5)
		for i := range nodes {
			probes[i] = &rngProbe{}
			nodes[i] = probes[i]
		}
		if _, err := simnet.Run(g, nodes, simnet.Config{Seed: 42}); err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, 5)
		for i, p := range probes {
			out[i] = p.draw
		}
		return out
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("node %d RNG not deterministic across runs", i)
		}
		for j := i + 1; j < len(first); j++ {
			if first[i] == first[j] {
				t.Fatalf("nodes %d and %d share RNG output", i, j)
			}
		}
	}
}

func TestMessagesToHaltedNodesDropped(t *testing.T) {
	// Node 1 halts in round 1; node 0 sends to it in round 2. The send is
	// silently dropped and the run still terminates.
	g := graph.NewLine(2)
	sender := &lateSender{}
	stats, err := simnet.Run(g, []simnet.Node{sender, silent{}}, simnet.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 0 {
		t.Errorf("messages delivered to halted node counted: %d", stats.Messages)
	}
}

type lateSender struct{ rounds int }

func (l *lateSender) Init(*simnet.Context) {}
func (l *lateSender) Round([]simnet.PortMessage) ([]simnet.PortMessage, bool) {
	l.rounds++
	if l.rounds == 2 {
		return []simnet.PortMessage{{Port: 0, Payload: []byte{9}}}, true
	}
	return nil, l.rounds > 2
}

func BenchmarkFloodRing(b *testing.B) {
	g := graph.NewRing(100)
	d := g.Diameter()
	for i := 0; i < b.N; i++ {
		nodes := make([]simnet.Node, g.N())
		for j := range nodes {
			nodes[j] = &floodMax{limit: d + 1}
		}
		if _, err := simnet.Run(g, nodes, simnet.Config{MaxBytesPerMessage: 16, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
