// Package simnet is a synchronous message-passing network simulator for the
// CONGEST and LOCAL models.
//
// Execution proceeds in lock-step rounds, as in the standard models: in each
// round every node receives the messages its neighbors sent in the previous
// round, performs local computation, and emits at most one message per
// incident edge. Run executes rounds on a flat, deterministic engine (see
// engine.go): CSR-flattened topology tables compiled once per graph,
// double-buffered inbox arenas, and a bounded worker pool that executes
// node programs in chunks while all routing and tracing stay serial in
// node-index order — so Stats, tracer event streams and node states are
// byte-identical at any Config.Workers value. The legacy goroutine-per-node
// coordinator lives on as simnettest.RunChannel, the reference the engine
// is differentially tested and benchmarked against.
//
// The CONGEST bandwidth restriction is enforced by Config.MaxBytesPerMessage
// (a message of B bits per edge per round; 0 disables the limit, giving the
// LOCAL model). Nodes see only local information: their identifier, degree,
// the number of nodes k, a private RNG, and port-numbered neighbors.
package simnet

import (
	"errors"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
)

// ErrBandwidthExceeded is returned when a node sends a message larger than
// the configured CONGEST limit.
var ErrBandwidthExceeded = errors.New("simnet: message exceeds bandwidth limit")

// ErrMaxRounds is returned when the simulation hits Config.MaxRounds before
// all nodes halt.
var ErrMaxRounds = errors.New("simnet: round limit reached before termination")

// PortMessage is a message on a specific port (edge index in the node's
// neighbor list).
type PortMessage struct {
	// Port is the index of the incident edge: for outgoing messages, the
	// destination; for incoming, the source.
	Port int
	// Payload is the message body; its length is charged against the
	// bandwidth limit. Run copies payloads on delivery, so a sender may
	// reuse its buffer as soon as Round returns and a receiver mutating a
	// delivered payload cannot corrupt anyone else's inbox; delivered
	// payloads are only valid for the round they arrive in.
	Payload []byte
}

// Context gives a node its local view of the network.
type Context struct {
	// ID is the node's unique identifier.
	ID int
	// Degree is the number of incident edges (ports 0 … Degree−1).
	Degree int
	// NumNodes is k, known to all nodes as in the paper's protocols.
	NumNodes int
	// RNG is the node's private randomness.
	RNG *rng.RNG
}

// Node is a synchronous state machine. Implementations must not retain or
// mutate the inbox slice across rounds.
type Node interface {
	// Init is called once before the first round.
	Init(ctx *Context)
	// Round consumes the messages delivered this round and returns the
	// messages to send (at most one per port) plus whether the node halts.
	// A halted node sends nothing afterwards and receives nothing.
	Round(in []PortMessage) (out []PortMessage, done bool)
}

// Config controls the simulation model.
type Config struct {
	// MaxBytesPerMessage is the CONGEST bandwidth B in bytes per edge per
	// round; 0 means unlimited (LOCAL model).
	MaxBytesPerMessage int
	// MaxRounds aborts runaway protocols; 0 means a default of 10·k + 1000
	// rounds.
	MaxRounds int
	// Seed derives every node's private RNG.
	Seed uint64
	// Tracer, if non-nil, observes rounds, messages and halts.
	Tracer Tracer
	// Workers bounds the flat engine's node-execution pool; 0 means
	// GOMAXPROCS. Stats, tracer streams and node states are byte-identical
	// at any value. simnettest.RunChannel ignores it (one goroutine per
	// node).
	Workers int
}

// Stats summarizes an execution.
type Stats struct {
	// Rounds is the number of rounds executed until all nodes halted.
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int
	// Bytes is the total payload volume delivered.
	Bytes int64
	// MaxMessageBytes is the largest single payload observed (the realized
	// CONGEST bandwidth).
	MaxMessageBytes int
}

// Run executes nodes on topology g until every node halts. nodes[i] is
// placed at vertex i; node IDs are the vertex indices. It returns an error
// if a node sends to an invalid or duplicate port, exceeds the bandwidth
// limit, or the round limit is reached.
//
// Run uses the flat round engine (engine.go): deterministic at any
// Config.Workers value, with Stats, tracer event streams and node states
// byte-identical to the legacy simnettest.RunChannel engine.
func Run(g *graph.Graph, nodes []Node, cfg Config) (Stats, error) {
	return runFlat(g, nodes, cfg)
}
