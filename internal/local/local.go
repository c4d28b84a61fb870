package local

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/simnet"
	"github.com/unifdist/unifdist/internal/tester"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// Params holds the resolved parameters of the LOCAL tester of Section 6.
type Params struct {
	// N, K are the domain and network sizes; Eps the distance parameter;
	// P the target error probability.
	N, K int
	Eps  float64
	P    float64
	// R is the gathering radius: the MIS is computed on G^R and each MIS
	// node collects the samples of (at least) its R/2-neighborhood.
	R int
	// VirtualNodes is the planned number of MIS nodes ⌊2k/R⌋ (an upper
	// bound; the realized count depends on the topology).
	VirtualNodes int
	// AND is the 0-round AND-rule configuration the virtual nodes run.
	AND zeroround.ANDConfig
	// Feasible reports whether the AND configuration's per-node sample
	// demand fits in the guaranteed R/2 samples per MIS node.
	Feasible bool
}

// SolveLocal finds the smallest radius r such that the 0-round AND tester
// over ⌊2k/r⌋ virtual nodes with r/2 samples each reaches error p — the
// paper's self-referential definition of r in Section 6.
func SolveLocal(n, k int, eps, p float64) (Params, error) {
	if k < 1 {
		return Params{}, fmt.Errorf("local: k=%d < 1", k)
	}
	// A radius beyond k−1 adds nothing on a connected graph (G^r is already
	// complete), so the scan is capped at k.
	maxR := k
	if maxR < 2 {
		maxR = 2
	}
	var radii []int
	for r := 2; r < maxR; r *= 2 {
		radii = append(radii, r, r+r/2)
	}
	radii = append(radii, maxR)

	var (
		bestCovered Params
		covered     bool
		last        Params
	)
	for _, rr := range radii {
		if rr > maxR {
			continue
		}
		ell := 2 * k / rr
		if ell < 1 {
			ell = 1
		}
		cfg, err := zeroround.SolveAND(n, ell, eps, p)
		if err != nil {
			continue
		}
		pp := Params{
			N:            n,
			K:            k,
			Eps:          eps,
			P:            p,
			R:            rr,
			VirtualNodes: ell,
			AND:          cfg,
			Feasible:     cfg.Feasible && cfg.SamplesPerNode <= rr/2,
		}
		last = pp
		if pp.Feasible {
			return pp, nil
		}
		if !covered && cfg.SamplesPerNode <= rr/2 {
			// Sample demand fits in the guaranteed r/2 even though the AND
			// configuration itself is best-effort.
			bestCovered = pp
			covered = true
		}
	}
	if covered {
		return bestCovered, nil
	}
	if last.R == 0 {
		return Params{}, fmt.Errorf("local: no parameters for n=%d k=%d eps=%v", n, k, eps)
	}
	return last, nil
}

// Result reports a LOCAL uniformity execution.
type Result struct {
	// Accept is the network's AND-rule verdict.
	Accept bool
	// GRounds is the total cost in G-rounds: R × (MIS rounds on G^R) for
	// Luby plus 2R+1 rounds of beaconing and routing.
	GRounds int
	// MISNodes is the number of virtual nodes (MIS vertices of G^R).
	MISNodes int
	// MinSamples and MaxSamples are the per-MIS-node collected sample
	// counts (including the MIS node's own sample).
	MinSamples, MaxSamples int
	// Rejecting is the number of virtual nodes that voted reject.
	Rejecting int
}

// RunUniformity executes the Section 6 protocol on g: tokens[v] is node
// v's sample. The MIS is computed distributively on G^p.R, samples are
// routed to MIS nodes by beacon gradients, and each MIS node votes with the
// m-repetition collision tester; the network accepts iff all votes accept.
func RunUniformity(g *graph.Graph, tokens []uint64, p Params, seed uint64) (Result, error) {
	if len(tokens) != g.N() {
		return Result{}, fmt.Errorf("local: %d tokens for %d nodes", len(tokens), g.N())
	}
	per := make([][]uint64, len(tokens))
	for v, tok := range tokens {
		per[v] = []uint64{tok}
	}
	return RunUniformityMulti(g, per, p, seed)
}

// RunUniformityMulti is RunUniformity with s ≥ 0 samples per node (the
// paper's "this is not essential" remark on the one-sample assumption):
// node v routes every sample in tokensPerNode[v] to its MIS node.
func RunUniformityMulti(g *graph.Graph, tokensPerNode [][]uint64, p Params, seed uint64) (Result, error) {
	if len(tokensPerNode) != g.N() {
		return Result{}, fmt.Errorf("local: %d token sets for %d nodes", len(tokensPerNode), g.N())
	}
	blocks, gRounds, err := route(g, tokensPerNode, p.R, seed)
	if err != nil {
		return Result{}, err
	}
	res := Result{Accept: true, GRounds: gRounds, MISNodes: len(blocks), MinSamples: math.MaxInt}
	for _, samples := range blocks {
		res.MinSamples = min(res.MinSamples, len(samples))
		res.MaxSamples = max(res.MaxSamples, len(samples))
		if !virtualVote(p.N, p.AND.M, samples) {
			res.Rejecting++
			res.Accept = false
		}
	}
	return res, nil
}

// route runs the protocol's communication: Luby's MIS on G^r at seed, then
// the gather. It returns the samples each MIS node collected, MIS nodes in
// vertex order and samples in collection order, and the G-round cost.
func route(g *graph.Graph, tokensPerNode [][]uint64, r int, seed uint64) ([][]uint64, int, error) {
	if r < 1 {
		return nil, 0, fmt.Errorf("local: radius %d < 1", r)
	}
	// A radius beyond k−1 is equivalent to k−1 on a connected graph.
	radius := r
	if radius >= g.N() && g.N() > 1 {
		radius = g.N() - 1
	}
	power := g.Power(radius)
	mis, err := LubyMIS(power, seed)
	if err != nil {
		return nil, 0, err
	}
	if err := VerifyMIS(power, mis.InMIS); err != nil {
		return nil, 0, err
	}
	collected, gatherRounds, err := gather(g, tokensPerNode, mis.InMIS, radius)
	if err != nil {
		return nil, 0, err
	}
	var blocks [][]uint64
	for v, in := range mis.InMIS {
		if in {
			blocks = append(blocks, collected[v])
		}
	}
	if len(blocks) == 0 {
		return nil, 0, fmt.Errorf("local: empty MIS")
	}
	return blocks, radius*mis.Rounds + gatherRounds, nil
}

// virtualVote runs the m-repetition single-collision tester on a virtual
// node's collected samples: split into m equal blocks and reject iff every
// block contains a collision. Nodes with too few samples to form 2-sample
// blocks accept (they carry no signal). It is the schedule network's node
// (tester.BlockCollision) applied to the samples as collected.
func virtualVote(n, m int, samples []uint64) bool {
	block := make([]int, len(samples))
	for i, v := range samples {
		block[i] = int(v)
	}
	return tester.NewBlockCollision(n, len(samples), m).Test(block, nil)
}

// Schedule is what the Section 6 protocol fixes at one MIS seed. Luby's
// algorithm is the protocol's only randomness and the gather routes
// samples without reading them, so the MIS, the G-round cost and which
// sample positions each MIS node collects, in which order, are the same
// for every input. A schedule is read off one run on tag tokens (node v
// holds v).
type Schedule struct {
	// GRounds is the run's cost in G-rounds, as in Result.
	GRounds int
	// Blocks[i] lists the positions (node IDs) whose samples the i-th MIS
	// node, in vertex order, collected, in collection order.
	Blocks [][]int
	// M is the block count of every MIS node's vote (Params.AND.M).
	M int
}

// RunSchedule runs the protocol's MIS and gather on g once, at the given
// MIS seed, on tag tokens, and returns its schedule.
func RunSchedule(g *graph.Graph, p Params, seed uint64) (Schedule, error) {
	tags := make([][]uint64, g.N())
	for v := range tags {
		tags[v] = []uint64{uint64(v)}
	}
	blocks, gRounds, err := route(g, tags, p.R, seed)
	if err != nil {
		return Schedule{}, err
	}
	s := Schedule{GRounds: gRounds, Blocks: make([][]int, len(blocks)), M: p.AND.M}
	for i, b := range blocks {
		s.Blocks[i] = make([]int, len(b))
		for j, v := range b {
			s.Blocks[i][j] = int(v)
		}
	}
	return s, nil
}

// Network returns the schedule's virtual network: an AND network with one
// node per MIS node, node i running virtualVote's m-block rule on
// len(Blocks[i]) samples from a domain of size n. Laying node i's samples
// of an indexed trial out on Blocks[i] and running the protocol at the
// schedule's MIS seed gives RunAt's verdict and rejecting count.
func (s Schedule) Network(n int) (*zeroround.Network, error) {
	nodes := make([]tester.Tester, len(s.Blocks))
	for i, b := range s.Blocks {
		nodes[i] = tester.NewBlockCollision(n, len(b), s.M)
	}
	return zeroround.NewNetwork(nodes, zeroround.ANDRule{})
}

// Beacon/routing message types.
const (
	gatherMsgBeacon byte = iota + 1
	gatherMsgSamples
)

// gather routes every node's token to its nearest MIS node (ties broken by
// lowest MIS ID) using R rounds of beacon flooding followed by R+1 rounds
// of gradient routing. It returns the samples collected per MIS node and
// the number of simulator rounds used.
func gather(g *graph.Graph, tokensPerNode [][]uint64, inMIS []bool, r int) (map[int][]uint64, int, error) {
	nodes, impls := newGatherNodes(tokensPerNode, inMIS, r)
	stats, err := simnet.Run(g, nodes, simnet.Config{})
	if err != nil {
		return nil, 0, fmt.Errorf("local: gather: %w", err)
	}
	collected, err := collectGather(impls)
	if err != nil {
		return nil, 0, err
	}
	return collected, stats.Rounds, nil
}

func newGatherNodes(tokensPerNode [][]uint64, inMIS []bool, r int) ([]simnet.Node, []*gatherNode) {
	nodes := make([]simnet.Node, len(inMIS))
	impls := make([]*gatherNode, len(inMIS))
	for v := range nodes {
		impls[v] = &gatherNode{
			radius: r,
			inMIS:  inMIS[v],
			tokens: tokensPerNode[v],
		}
		nodes[v] = impls[v]
	}
	return nodes, impls
}

// collectGather returns the samples each MIS node collected, checking that
// every sample was delivered.
func collectGather(impls []*gatherNode) (map[int][]uint64, error) {
	collected := make(map[int][]uint64)
	for v, nd := range impls {
		if nd.lost {
			return nil, fmt.Errorf("local: node %d found no MIS node within radius", v)
		}
		if nd.inMIS {
			collected[v] = nd.collected
		} else if len(nd.pendingOut) > 0 {
			return nil, fmt.Errorf("local: node %d still holds %d undelivered samples", v, len(nd.pendingOut))
		}
	}
	return collected, nil
}

// beaconEntry tracks the best known route to one MIS node.
type beaconEntry struct {
	dist int
	port int
}

// pendingSample is a sample in transit to an MIS node.
type pendingSample struct {
	mis   int
	value uint64
}

// gatherNode floods MIS beacons for radius rounds, then routes samples
// along the beacon gradients for radius+1 rounds. LOCAL messages aggregate
// arbitrarily many entries.
type gatherNode struct {
	ctx        *simnet.Context
	radius     int
	inMIS      bool
	tokens     []uint64
	round      int
	routes     map[int]beaconEntry // MIS id → best route
	fresh      []int               // MIS ids learned this round (to re-flood)
	collected  []uint64
	pendingOut []pendingSample
	sent       bool
	lost       bool
}

// Init implements simnet.Node.
func (nd *gatherNode) Init(ctx *simnet.Context) {
	nd.ctx = ctx
	nd.routes = make(map[int]beaconEntry)
	if nd.inMIS {
		nd.collected = append([]uint64(nil), nd.tokens...)
		nd.routes[ctx.ID] = beaconEntry{dist: 0, port: -1}
		nd.fresh = []int{ctx.ID}
	}
}

// Round implements simnet.Node.
func (nd *gatherNode) Round(in []simnet.PortMessage) ([]simnet.PortMessage, bool) {
	nd.round++
	var out []simnet.PortMessage
	for _, m := range in {
		switch m.Payload[0] {
		case gatherMsgBeacon:
			nd.handleBeacon(m)
		case gatherMsgSamples:
			nd.handleSamples(m)
		}
	}
	switch {
	case nd.round <= nd.radius:
		// Beacon phase: re-flood newly learned MIS ids with incremented
		// distances.
		if len(nd.fresh) > 0 {
			payload := encodeBeacons(nd.fresh, nd.routes)
			for p := 0; p < nd.ctx.Degree; p++ {
				out = append(out, simnet.PortMessage{Port: p, Payload: payload})
			}
			nd.fresh = nil
		}
	default:
		// Routing phase: pick a destination once, then forward everything
		// pending one hop per round.
		if !nd.sent && !nd.inMIS {
			nd.sent = true
			if mis, ok := nd.bestMIS(); ok {
				for _, tok := range nd.tokens {
					nd.pendingOut = append(nd.pendingOut, pendingSample{mis: mis, value: tok})
				}
			} else if len(nd.tokens) > 0 {
				// MIS maximality on G^r guarantees an MIS node within
				// radius r on a connected graph; reaching here is a bug.
				nd.lost = true
			}
		}
		out = append(out, nd.routeSamples()...)
	}
	done := nd.round > 2*nd.radius+1
	return out, done
}

func (nd *gatherNode) handleBeacon(m simnet.PortMessage) {
	entries := decodeBeacons(m.Payload)
	for _, e := range entries {
		if e.dist > nd.radius {
			continue // out of gathering range
		}
		cur, ok := nd.routes[e.mis]
		if !ok || e.dist < cur.dist {
			nd.routes[e.mis] = beaconEntry{dist: e.dist, port: m.Port}
			nd.fresh = append(nd.fresh, e.mis)
		}
	}
}

func (nd *gatherNode) handleSamples(m simnet.PortMessage) {
	samples := decodeSamples(m.Payload)
	for _, s := range samples {
		if nd.inMIS && s.mis == nd.ctx.ID {
			nd.collected = append(nd.collected, s.value)
			continue
		}
		nd.pendingOut = append(nd.pendingOut, s)
	}
}

// bestMIS returns the nearest MIS node (ties by lowest id).
func (nd *gatherNode) bestMIS() (int, bool) {
	best := -1
	bestDist := math.MaxInt
	for mis, e := range nd.routes {
		if e.dist < bestDist || (e.dist == bestDist && mis < best) {
			best = mis
			bestDist = e.dist
		}
	}
	return best, best >= 0
}

// routeSamples forwards every pending sample one hop along its gradient.
// Samples sharing a next hop are batched into one LOCAL message.
func (nd *gatherNode) routeSamples() []simnet.PortMessage {
	if len(nd.pendingOut) == 0 {
		return nil
	}
	byPort := make(map[int][]pendingSample)
	var stuck []pendingSample
	for _, s := range nd.pendingOut {
		route, ok := nd.routes[s.mis]
		if !ok || route.port < 0 {
			stuck = append(stuck, s)
			continue
		}
		byPort[route.port] = append(byPort[route.port], s)
	}
	nd.pendingOut = stuck
	// Emit in sorted port order: byPort is a map, and its iteration order
	// must not reach the message stream (trace/journal byte-determinism).
	ports := make([]int, 0, len(byPort))
	for port := range byPort {
		ports = append(ports, port)
	}
	sort.Ints(ports)
	out := make([]simnet.PortMessage, 0, len(ports))
	for _, port := range ports {
		out = append(out, simnet.PortMessage{Port: port, Payload: encodeSamples(byPort[port])})
	}
	return out
}

type beaconWire struct {
	mis  int
	dist int
}

// encodeBeacons emits the node's current (mis, dist) entries for the given
// fresh ids, with distance incremented for the receiver.
func encodeBeacons(fresh []int, routes map[int]beaconEntry) []byte {
	buf := make([]byte, 1, 1+8*len(fresh))
	buf[0] = gatherMsgBeacon
	for _, mis := range fresh {
		var entry [8]byte
		binary.LittleEndian.PutUint32(entry[:4], uint32(mis))
		binary.LittleEndian.PutUint32(entry[4:], uint32(routes[mis].dist+1))
		buf = append(buf, entry[:]...)
	}
	return buf
}

func decodeBeacons(payload []byte) []beaconWire {
	body := payload[1:]
	entries := make([]beaconWire, 0, len(body)/8)
	for i := 0; i+8 <= len(body); i += 8 {
		entries = append(entries, beaconWire{
			mis:  int(binary.LittleEndian.Uint32(body[i : i+4])),
			dist: int(binary.LittleEndian.Uint32(body[i+4 : i+8])),
		})
	}
	return entries
}

func encodeSamples(samples []pendingSample) []byte {
	buf := make([]byte, 1, 1+12*len(samples))
	buf[0] = gatherMsgSamples
	for _, s := range samples {
		var entry [12]byte
		binary.LittleEndian.PutUint32(entry[:4], uint32(s.mis))
		binary.LittleEndian.PutUint64(entry[4:], s.value)
		buf = append(buf, entry[:]...)
	}
	return buf
}

func decodeSamples(payload []byte) []pendingSample {
	body := payload[1:]
	samples := make([]pendingSample, 0, len(body)/12)
	for i := 0; i+12 <= len(body); i += 12 {
		samples = append(samples, pendingSample{
			mis:   int(binary.LittleEndian.Uint32(body[i : i+4])),
			value: binary.LittleEndian.Uint64(body[i+4 : i+12]),
		})
	}
	return samples
}
