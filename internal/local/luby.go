// Package local implements the paper's LOCAL-model uniformity tester
// (Section 6): find a maximal independent set of the power graph G^r with
// Luby's algorithm, route every node's sample to a nearby MIS node, and run
// the 0-round AND-rule tester with the MIS nodes as "virtual nodes".
//
// Rounds are accounted in G-rounds: one round of G^r costs r rounds of G,
// the standard LOCAL simulation argument. The LOCAL model places no bound
// on message size, so beacon and sample-routing messages may aggregate
// arbitrarily many values.
//
// At a fixed MIS seed the MIS and the gather do not depend on the sample
// values; RunSchedule records that routing once, and its Network is the
// AND network of MIS nodes the tester's error is estimated on.
package local

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/simnet"
)

// MISResult reports a distributed Luby execution.
type MISResult struct {
	// InMIS[v] reports whether vertex v joined the independent set.
	InMIS []bool
	// Iterations is the number of Luby iterations until every node decided.
	Iterations int
	// Rounds is the number of simulator rounds consumed (3 per iteration).
	Rounds int
}

// LubyMIS computes a maximal independent set of g with Luby's distributed
// algorithm, executed faithfully on the message-passing simulator.
func LubyMIS(g *graph.Graph, seed uint64) (MISResult, error) {
	nodes, impls := newLubyNodes(g.N())
	stats, err := simnet.Run(g, nodes, simnet.Config{Seed: seed})
	if err != nil {
		return MISResult{}, fmt.Errorf("local: luby: %w", err)
	}
	return collectMIS(impls, stats)
}

func newLubyNodes(k int) ([]simnet.Node, []*lubyNode) {
	nodes := make([]simnet.Node, k)
	impls := make([]*lubyNode, k)
	for v := range nodes {
		impls[v] = &lubyNode{}
		nodes[v] = impls[v]
	}
	return nodes, impls
}

// collectMIS reads the independent set off the halted Luby nodes.
func collectMIS(impls []*lubyNode, stats simnet.Stats) (MISResult, error) {
	res := MISResult{InMIS: make([]bool, len(impls)), Rounds: stats.Rounds}
	for v, nd := range impls {
		switch nd.state {
		case lubyInMIS:
			res.InMIS[v] = true
		case lubyDead:
		default:
			return MISResult{}, fmt.Errorf("local: node %d ended undecided", v)
		}
		res.Iterations = max(res.Iterations, nd.iteration)
	}
	return res, nil
}

// VerifyMIS checks independence and maximality of a candidate MIS.
func VerifyMIS(g *graph.Graph, inMIS []bool) error {
	if len(inMIS) != g.N() {
		return fmt.Errorf("local: MIS vector has %d entries for %d vertices", len(inMIS), g.N())
	}
	for v := 0; v < g.N(); v++ {
		hasMISNeighbor := false
		for _, u := range g.Neighbors(v) {
			if inMIS[u] {
				hasMISNeighbor = true
				if inMIS[v] {
					return fmt.Errorf("local: adjacent MIS vertices %d and %d", v, u)
				}
			}
		}
		if !inMIS[v] && !hasMISNeighbor {
			return fmt.Errorf("local: vertex %d is uncovered (not maximal)", v)
		}
	}
	return nil
}

type lubyState int

const (
	lubyContender lubyState = iota + 1
	lubyInMIS
	lubyDead
)

// Luby sub-round message types.
const (
	lubyMsgValue byte = iota + 1
	lubyMsgJoin
	lubyMsgLeave
)

// Fixed JOIN and LEAVE payloads, shared read-only by every node.
var (
	joinPayload  = []byte{lubyMsgJoin}
	leavePayload = []byte{lubyMsgLeave}
)

// lubyNode runs Luby's algorithm: each iteration is three simulator rounds
// (exchange random values; winners announce JOIN; new dead nodes announce
// LEAVE), with nodes tracking which neighbors are still contending.
//
// The outbox and the value payload are reused. Reusing the payload is safe
// even where the reference engine simnettest.RunChannel hands receivers the
// sender's slice: it is rewritten only at the next iteration, two rounds
// after the receivers consumed it.
type lubyNode struct {
	ctx       *simnet.Context
	state     lubyState
	phase     int // 0 = send values, 1 = decide+announce join, 2 = process leave
	iteration int
	alive     []int // still-contending neighbor ports, ascending
	value     uint64
	announced bool
	out       []simnet.PortMessage
	valueMsg  [13]byte
}

// Init implements simnet.Node.
func (nd *lubyNode) Init(ctx *simnet.Context) {
	nd.ctx = ctx
	nd.state = lubyContender
	nd.alive = make([]int, ctx.Degree)
	for p := range nd.alive {
		nd.alive[p] = p
	}
	nd.out = make([]simnet.PortMessage, 0, ctx.Degree)
}

// broadcast queues payload on every alive port, in ascending port order
// (trace/journal byte-determinism).
func (nd *lubyNode) broadcast(payload []byte) {
	for _, p := range nd.alive {
		nd.out = append(nd.out, simnet.PortMessage{Port: p, Payload: payload})
	}
}

// drop removes port from the alive set, if present.
func (nd *lubyNode) drop(port int) {
	if i, ok := slices.BinarySearch(nd.alive, port); ok {
		nd.alive = slices.Delete(nd.alive, i, i+1)
	}
}

// Round implements simnet.Node.
func (nd *lubyNode) Round(in []simnet.PortMessage) ([]simnet.PortMessage, bool) {
	nd.out = nd.out[:0]
	switch nd.phase {
	case 0:
		// Start of iteration: contenders draw and broadcast a value.
		nd.iteration++
		if nd.state == lubyContender {
			nd.value = nd.ctx.RNG.Uint64()
			payload := nd.valueMsg[:]
			payload[0] = lubyMsgValue
			binary.LittleEndian.PutUint64(payload[1:], nd.value)
			binary.LittleEndian.PutUint32(payload[9:], uint32(nd.ctx.ID))
			nd.broadcast(payload)
		}
	case 1:
		// Decide: a contender wins if its (value, ID) beats every alive
		// contender neighbor's.
		if nd.state == lubyContender {
			win := true
			for _, m := range in {
				if m.Payload[0] != lubyMsgValue {
					continue
				}
				val := binary.LittleEndian.Uint64(m.Payload[1:])
				id := int(binary.LittleEndian.Uint32(m.Payload[9:]))
				if val > nd.value || (val == nd.value && id > nd.ctx.ID) {
					win = false
				}
			}
			if win {
				nd.state = lubyInMIS
				nd.broadcast(joinPayload)
				nd.announced = true
			}
		}
	case 2:
		// Process joins: any JOIN kills a contender; it announces LEAVE so
		// surviving contenders stop waiting for its values.
		joined := false
		for _, m := range in {
			if m.Payload[0] == lubyMsgJoin {
				joined = true
				nd.drop(m.Port)
			}
		}
		if nd.state == lubyContender && joined {
			nd.state = lubyDead
			nd.broadcast(leavePayload)
			nd.announced = true
		}
	}
	// LEAVE messages can arrive in any phase right after a kill round.
	for _, m := range in {
		if m.Payload[0] == lubyMsgLeave {
			nd.drop(m.Port)
		}
	}
	nd.phase = (nd.phase + 1) % 3
	// A decided node halts once its announcement round has passed.
	done := nd.state != lubyContender && nd.announced && nd.phase == 0
	if nd.state == lubyInMIS && !nd.announced {
		// Degree-zero contender joined without needing announcements.
		done = true
	}
	return nd.out, done
}
