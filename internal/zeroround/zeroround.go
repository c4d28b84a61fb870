// Package zeroround implements the paper's 0-round distributed uniformity
// testers: k nodes each draw samples from the unknown distribution and
// output accept/reject with no communication; the network's verdict is
// obtained by a decision rule over the individual votes.
//
// Two decision rules are supported, matching Section 3.2:
//
//   - the AND rule ("standard distributed decision"): the network accepts
//     iff every node accepts (Theorem 1.1), and
//   - the threshold rule: the network rejects iff at least T nodes reject
//     (Theorem 1.2).
//
// Section 4's asymmetric-cost generalizations are provided by
// SolveAsymmetricAND and SolveAsymmetricThreshold, which assign each node a
// different per-node sample budget s_i so that all nodes pay the same
// maximum individual cost C = s_i·c_i.
package zeroround

import (
	"fmt"
	"math"
	"sync"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/stats"
	"github.com/unifdist/unifdist/internal/tester"
)

// Rule is a network decision rule mapping individual votes to a network
// verdict.
type Rule interface {
	// Accept reports the network verdict given the number of rejecting
	// nodes out of k.
	Accept(rejects, k int) bool
	// Name returns a short description.
	Name() string
}

// EarlyDecider is an optional Rule refinement: rules whose verdict can
// become fixed before every node has voted implement it. EstimateErrorAt
// stops polling a trial's nodes as soon as the outcome is determined, and
// the cluster referee closes such trials early. Each node's vote is fixed
// by (base, trial, node) alone, so the verdict is RunAt's; only the work
// shrinks. RunAt itself always polls every node: its rejects count is part
// of the API.
type EarlyDecider interface {
	// Decided reports whether the verdict is already fixed after observing
	// rejects rejecting votes with remaining nodes still unpolled, and if
	// so what the verdict is.
	Decided(rejects, remaining int) (accept, done bool)
}

// ANDRule accepts iff no node rejects.
type ANDRule struct{}

// Accept implements Rule.
func (ANDRule) Accept(rejects, _ int) bool { return rejects == 0 }

// Decided implements EarlyDecider: one rejection settles the verdict.
func (ANDRule) Decided(rejects, remaining int) (accept, done bool) {
	if rejects > 0 {
		return false, true
	}
	return true, remaining == 0
}

// Name implements Rule.
func (ANDRule) Name() string { return "AND" }

// ThresholdRule rejects iff at least T nodes reject.
type ThresholdRule struct {
	// T is the rejection threshold.
	T int
}

// Accept implements Rule.
func (t ThresholdRule) Accept(rejects, _ int) bool { return rejects < t.T }

// Decided implements EarlyDecider: the verdict is fixed once T rejections
// have been seen, or once too few nodes remain to reach T.
func (t ThresholdRule) Decided(rejects, remaining int) (accept, done bool) {
	if rejects >= t.T {
		return false, true
	}
	if rejects+remaining < t.T {
		return true, true
	}
	return false, false
}

// Name implements Rule.
func (t ThresholdRule) Name() string { return fmt.Sprintf("threshold(T=%d)", t.T) }

// Network is a 0-round distributed tester: per-node centralized testers
// plus a decision rule.
type Network struct {
	nodes []tester.Tester
	rule  Rule
	// voters[i] is nodes[i]'s vote, resolved once at construction so a
	// vote pays no type assertion.
	voters []tester.Voter
	// early is rule as an EarlyDecider, or nil; resolved once likewise.
	early EarlyDecider
	// maxSamples caches MaxSamplesPerNode.
	maxSamples int

	// Obs, when non-nil, receives per-trial telemetry from EstimateErrorAt:
	// the zeroround.trials counter, zeroround.wrong counter, and the
	// zeroround.trial_ns latency histogram. Leave nil to disable (the cost
	// is one pointer check per estimate call).
	Obs *obs.Registry

	// Workers bounds the goroutines EstimateErrorAt runs its trials on;
	// 0 means GOMAXPROCS. The estimate is bit-for-bit identical at any
	// worker count.
	Workers int
}

// NewNetwork builds a 0-round network. All nodes may share one tester value
// (testers are stateless); len(nodes) is the network size k.
func NewNetwork(nodes []tester.Tester, rule Rule) (*Network, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("zeroround: empty network")
	}
	if rule == nil {
		return nil, fmt.Errorf("zeroround: nil decision rule")
	}
	nw := &Network{
		nodes:  nodes,
		rule:   rule,
		voters: make([]tester.Voter, len(nodes)),
	}
	for i, nd := range nodes {
		nw.voters[i] = tester.NewVoter(nd)
		if s := nd.SampleSize(); s > nw.maxSamples {
			nw.maxSamples = s
		}
	}
	if ed, ok := rule.(EarlyDecider); ok {
		nw.early = ed
	}
	return nw, nil
}

// K returns the network size.
func (nw *Network) K() int { return len(nw.nodes) }

// Rule returns the network's decision rule.
func (nw *Network) Rule() Rule { return nw.rule }

// TotalSamples returns the number of samples drawn network-wide per run.
func (nw *Network) TotalSamples() int {
	total := 0
	for _, nd := range nw.nodes {
		total += nd.SampleSize()
	}
	return total
}

// MaxSamplesPerNode returns the largest per-node sample count.
func (nw *Network) MaxSamplesPerNode() int { return nw.maxSamples }

// Scratch holds the reusable buffers of the indexed execution: the sample
// buffer and the collision-statistic scratch. One Scratch serves any
// number of sequential VoteAt and RunAt calls on the same network; it is
// not safe for concurrent use, so EstimateErrorAt lends one to each trial
// from a pool shared across calls and networks.
type Scratch struct {
	buf []int
	col *dist.CollisionScratch
}

// NewScratch returns run scratch sized for nw.
func (nw *Network) NewScratch() *Scratch {
	return &Scratch{
		buf: make([]int, nw.maxSamples),
		col: dist.NewCollisionScratch(),
	}
}

// scratchPool holds the trial scratch EstimateErrorAt lends out. A
// collision scratch's stamp array costs two bytes per domain element
// (2 MiB at n = 2²⁰) and grows on demand, so one pooled scratch serves
// every network and domain size.
var scratchPool = sync.Pool{New: func() any { return &Scratch{col: dist.NewCollisionScratch()} }}

// borrowScratch takes a scratch from the pool with its sample buffer sized
// for nw; hand it back with scratchPool.Put.
func (nw *Network) borrowScratch() *Scratch {
	sc := scratchPool.Get().(*Scratch)
	if cap(sc.buf) < nw.maxSamples {
		sc.buf = make([]int, nw.maxSamples)
	}
	sc.buf = sc.buf[:nw.maxSamples]
	return sc
}

// CP returns the gap constant C_p = ln(1/p) / ln(1/(1−p)) required of each
// node's tester under the AND rule (Section 3.2.1). For p = 1/3 it is
// ≈ 2.7095.
func CP(p float64) float64 {
	return math.Log(1/p) / math.Log(1/(1-p))
}

// ANDConfig holds the resolved parameters of the symmetric AND-rule tester
// of Theorem 1.1.
type ANDConfig struct {
	// N, K are the domain and network sizes; Eps the distance parameter;
	// P the target network error probability.
	N, K int
	Eps  float64
	P    float64
	// M is the per-node repetition count m = Θ(C_p/ε²).
	M int
	// DeltaPrime is the per-repetition completeness error δ′ = Θ(1/k^{1/m}).
	DeltaPrime float64
	// SamplesPerNode is s = m·s(δ′), the per-node sample complexity of
	// Theorem 1.1.
	SamplesPerNode int
	// NodeGap is the per-node amplified gap (1+γε²)^m actually achieved.
	NodeGap float64
	// RequiredGap is C_p, the gap needed for network error ≤ p.
	RequiredGap float64
	// Gamma is the realized slack of the inner tester.
	Gamma float64
	// Feasible reports whether NodeGap ≥ RequiredGap with a positive slack
	// γ, i.e. whether the paper's error guarantee holds at these concrete
	// parameters (it requires large n/k; see DESIGN.md §3.1).
	Feasible bool
}

// SolveAND resolves Theorem 1.1's parameters for domain size n, network
// size k, distance eps and target error p. It searches over the repetition
// count m for the assignment minimizing per-node samples among those
// meeting the gap requirement; if no m meets it (the regime is too small
// for the rigorous constants), it returns the best-effort assignment with
// Feasible=false.
func SolveAND(n, k int, eps, p float64) (ANDConfig, error) {
	if k < 1 {
		return ANDConfig{}, fmt.Errorf("zeroround: k=%d < 1", k)
	}
	if p <= 0 || p >= 1 {
		return ANDConfig{}, fmt.Errorf("zeroround: p=%v outside (0, 1)", p)
	}
	if eps <= 0 || eps > 2 {
		return ANDConfig{}, fmt.Errorf("zeroround: eps=%v outside (0, 2]", eps)
	}
	cp := CP(p)
	// Per-node completeness budget: (1−q0)^k ≥ 1−p ⇒ q0 ≤ 1−(1−p)^{1/k}.
	q0 := 1 - math.Pow(1-p, 1/float64(k))

	cfg := ANDConfig{N: n, K: k, Eps: eps, P: p, RequiredGap: cp}
	bestFeasible := false
	bestSamples := math.MaxInt
	bestGap := 0.0
	found := false
	const maxM = 64
	for m := 1; m <= maxM; m++ {
		deltaPrime := math.Pow(q0, 1/float64(m))
		gp, err := tester.SolveGap(n, deltaPrime, eps)
		if err != nil {
			continue
		}
		// Amplification multiplies the gap only when the single-copy gap
		// exceeds 1; with no proven gap (α ≤ 1, possible in small regimes)
		// repetitions cannot help.
		gap := gp.Alpha
		if gap > 1 {
			gap = math.Pow(gap, float64(m))
		}
		samples := m * gp.S
		feasible := gp.Gamma > 0 && gap >= cp
		better := false
		switch {
		case feasible && !bestFeasible:
			better = true
		case feasible == bestFeasible && feasible:
			better = samples < bestSamples
		case feasible == bestFeasible && !feasible:
			better = gap > bestGap
		}
		if !found || better {
			found = true
			bestFeasible = feasible
			bestSamples = samples
			bestGap = gap
			cfg.M = m
			cfg.DeltaPrime = gp.Delta
			cfg.SamplesPerNode = samples
			cfg.NodeGap = gap
			cfg.Gamma = gp.Gamma
			cfg.Feasible = feasible
		}
	}
	if !found {
		return ANDConfig{}, fmt.Errorf("zeroround: no valid parameters for n=%d k=%d eps=%v", n, k, eps)
	}
	return cfg, nil
}

// BuildAND constructs the symmetric AND-rule network realizing cfg: every
// node runs the m-repetition amplified tester and the network applies the
// AND rule.
func BuildAND(cfg ANDConfig) (*Network, error) {
	node, err := tester.NewAmplified(cfg.N, cfg.DeltaPrime, cfg.Eps, cfg.M)
	if err != nil {
		return nil, fmt.Errorf("zeroround: build AND node: %w", err)
	}
	nodes := make([]tester.Tester, cfg.K)
	for i := range nodes {
		nodes[i] = node
	}
	return NewNetwork(nodes, ANDRule{})
}

// ThresholdConfig holds the resolved parameters of the symmetric
// threshold-rule tester of Theorem 1.2.
type ThresholdConfig struct {
	// N, K, Eps as in ANDConfig.
	N, K int
	Eps  float64
	// Delta is the per-node completeness error of A_δ.
	Delta float64
	// SamplesPerNode is s = Θ(√(n/k)/ε²).
	SamplesPerNode int
	// T is the rejection threshold T = Θ(1/ε⁴).
	T int
	// EtaUniform is the expected number of rejections under uniform (≤ kδ);
	// EtaFar is the guaranteed expectation under any ε-far distribution.
	EtaUniform, EtaFar float64
	// Gamma is the realized slack of the per-node tester.
	Gamma float64
	// Feasible reports whether eq. (5) holds with the realized γ, i.e.
	// whether both Chernoff tails are below 1/3.
	Feasible bool
}

// SolveThreshold resolves Theorem 1.2's parameters: it finds the smallest
// per-node completeness error δ for which a threshold T satisfying the
// paper's eq. (5),
//
//	η(U) + √(3·ln3·η(U)) ≤ T ≤ η(µ) − √(2·ln3·η(µ)),
//
// exists (with η(U) = kδ and η(µ) ≥ kδ(1+γε²)), then places T in the
// middle of the window. Increasing δ widens the window through
// concentration but erodes the slack γ, so the feasible δ form an interval;
// a log-grid scan locates its low end, which minimizes per-node samples
// s = √(2δn).
func SolveThreshold(n, k int, eps float64) (ThresholdConfig, error) {
	if k < 1 {
		return ThresholdConfig{}, fmt.Errorf("zeroround: k=%d < 1", k)
	}
	if eps <= 0 || eps > 2 {
		return ThresholdConfig{}, fmt.Errorf("zeroround: eps=%v outside (0, 2]", eps)
	}
	ln3 := math.Log(3)
	eval := func(delta float64) (cfg ThresholdConfig, window float64, err error) {
		gp, err := tester.SolveGap(n, delta, eps)
		if err != nil {
			return ThresholdConfig{}, 0, err
		}
		// Tight rigorous per-node probabilities: the exact uniform
		// collision probability, and the Lemma 3.2+3.3 lower bound on the
		// ε-far rejection probability. Both dominate the linearized
		// (δ, 1+γε²) accounting; see DESIGN.md §3.1.
		pU := 1 - tester.UniformNoCollisionProb(n, gp.S)
		pFar := tester.FarRejectLowerBound(n, gp.S, eps)
		etaU := float64(k) * pU
		etaFar := float64(k) * pFar
		lower := etaU + math.Sqrt(3*ln3*etaU)
		upper := etaFar - math.Sqrt(2*ln3*math.Max(etaFar, 0))
		t := int(math.Ceil((lower + upper) / 2))
		if t < 1 {
			t = 1
		}
		cfg = ThresholdConfig{
			N:              n,
			K:              k,
			Eps:            eps,
			Delta:          gp.Delta,
			SamplesPerNode: gp.S,
			T:              t,
			EtaUniform:     etaU,
			EtaFar:         etaFar,
			Gamma:          gp.Gamma,
			Feasible:       lower <= upper && float64(t) >= lower && float64(t) <= upper,
		}
		return cfg, upper - lower, nil
	}

	var (
		best       ThresholdConfig
		bestWindow = math.Inf(-1)
		found      bool
	)
	// Log grid from δ = 1e-8 up to 0.5; the first feasible point (smallest
	// δ, hence fewest samples) wins.
	const gridPoints = 240
	for i := 0; i < gridPoints; i++ {
		delta := math.Pow(10, -8+7.7*float64(i)/float64(gridPoints-1)) // 1e-8 … ~0.5
		cfg, window, err := eval(delta)
		if err != nil {
			continue
		}
		if cfg.Feasible {
			return cfg, nil
		}
		if !found || window > bestWindow {
			found = true
			bestWindow = window
			best = cfg
		}
	}
	if !found {
		return ThresholdConfig{}, fmt.Errorf("zeroround: no threshold parameters for n=%d k=%d eps=%v", n, k, eps)
	}
	return best, nil
}

// BuildThreshold constructs the symmetric threshold-rule network realizing
// cfg: every node runs A_δ once and the network rejects iff at least T
// nodes reject.
func BuildThreshold(cfg ThresholdConfig) (*Network, error) {
	node, err := tester.NewSingleCollision(cfg.N, cfg.Delta, cfg.Eps)
	if err != nil {
		return nil, fmt.Errorf("zeroround: build threshold node: %w", err)
	}
	nodes := make([]tester.Tester, cfg.K)
	for i := range nodes {
		nodes[i] = node
	}
	return NewNetwork(nodes, ThresholdRule{T: cfg.T})
}

// AsymmetricConfig holds per-node parameters for the asymmetric-cost
// testers of Section 4, where node i pays c_i per sample and all nodes are
// assigned the same maximum individual cost C = s_i·c_i.
type AsymmetricConfig struct {
	// N, K, Eps as in the symmetric configs.
	N, K int
	Eps  float64
	// Costs is the per-sample cost vector c; InverseCosts is T with
	// T_i = 1/c_i.
	Costs, InverseCosts []float64
	// Cost is the common maximum individual cost C.
	Cost float64
	// Samples is the per-node sample count s_i = C·T_i (rounded).
	Samples []int
	// Deltas is the per-node completeness error δ_i.
	Deltas []float64
	// M is the per-node repetition count (1 for the threshold rule).
	M int
	// T is the rejection threshold (threshold rule only; 0 under AND).
	T int
	// Norm records the norm of T used: ‖T‖₂ for threshold, ‖T‖₂ₘ for AND.
	Norm float64
}

// SolveAsymmetricThreshold resolves Section 4.2: Σδ_i = Θ(1/ε⁴) with
// δ_i = C²T_i²/(2n), giving C = Θ(√n/ε²)/‖T‖₂.
func SolveAsymmetricThreshold(n int, eps float64, costs []float64) (AsymmetricConfig, error) {
	k := len(costs)
	if k == 0 {
		return AsymmetricConfig{}, fmt.Errorf("zeroround: empty cost vector")
	}
	if eps <= 0 || eps > 2 {
		return AsymmetricConfig{}, fmt.Errorf("zeroround: eps=%v outside (0, 2]", eps)
	}
	inv := make([]float64, k)
	for i, c := range costs {
		if c <= 0 {
			return AsymmetricConfig{}, fmt.Errorf("zeroround: cost %v at node %d not positive", c, i)
		}
		inv[i] = 1 / c
	}
	ln3 := math.Log(3)
	norm2 := stats.LpNorm(inv, 2)

	// eval resolves the configuration for a total rejection mass x = Σδ_i:
	// Σδ_i = C²·ΣT_i²/(2n) = x ⇒ C = √(2n·x)/‖T‖₂. Feasibility mirrors the
	// symmetric eq. (5) window, using the worst (smallest) per-node slack γ.
	eval := func(x float64) (AsymmetricConfig, float64, bool) {
		c := math.Sqrt(2*float64(n)*x) / norm2
		cfg := AsymmetricConfig{
			N:            n,
			K:            k,
			Eps:          eps,
			Costs:        append([]float64(nil), costs...),
			InverseCosts: inv,
			Cost:         c,
			Samples:      make([]int, k),
			Deltas:       make([]float64, k),
			M:            1,
			Norm:         norm2,
		}
		etaU := 0.0
		etaFar := 0.0
		for i := range inv {
			s := int(math.Round(c * inv[i]))
			if s < 2 {
				s = 2
			}
			cfg.Samples[i] = s
			delta := float64(s) * float64(s-1) / (2 * float64(n))
			if delta >= 1 {
				return cfg, math.Inf(-1), false
			}
			cfg.Deltas[i] = delta
			etaU += 1 - tester.UniformNoCollisionProb(n, s)
			etaFar += tester.FarRejectLowerBound(n, s, eps)
		}
		lower := etaU + math.Sqrt(3*ln3*etaU)
		upper := etaFar - math.Sqrt(2*ln3*math.Max(etaFar, 0))
		cfg.T = int(math.Ceil((lower + upper) / 2))
		if cfg.T < 1 {
			cfg.T = 1
		}
		feasible := lower <= upper &&
			float64(cfg.T) >= lower && float64(cfg.T) <= upper
		return cfg, upper - lower, feasible
	}

	var (
		best       AsymmetricConfig
		bestWindow = math.Inf(-1)
		found      bool
	)
	const gridPoints = 160
	for i := 0; i < gridPoints; i++ {
		// Total mass grid: x from 1 to 10⁴ (Θ(1/ε⁴) lives well inside).
		x := math.Pow(10, 4*float64(i)/float64(gridPoints-1))
		cfg, window, feasible := eval(x)
		if feasible {
			return cfg, nil
		}
		if !found || window > bestWindow {
			found = true
			bestWindow = window
			best = cfg
		}
	}
	if !found {
		return AsymmetricConfig{}, fmt.Errorf("zeroround: no asymmetric threshold parameters for n=%d eps=%v", n, eps)
	}
	return best, nil
}

// SolveAsymmetricAND resolves Section 4.1: m repetitions per node,
// δ_i = (C·T_i)^{2m}/((2n)^m·m^{2m}), with Σδ_i = ln(1/(1−p)) so that the
// uniform distribution is accepted by all nodes with probability ≥ 1−p.
// This yields C = (ln(1/(1−p)))^{1/(2m)}·m·√(2n)/‖T‖₂ₘ.
func SolveAsymmetricAND(n int, eps, p float64, costs []float64) (AsymmetricConfig, error) {
	k := len(costs)
	if k == 0 {
		return AsymmetricConfig{}, fmt.Errorf("zeroround: empty cost vector")
	}
	if p <= 0 || p >= 1 {
		return AsymmetricConfig{}, fmt.Errorf("zeroround: p=%v outside (0, 1)", p)
	}
	if eps <= 0 || eps > 2 {
		return AsymmetricConfig{}, fmt.Errorf("zeroround: eps=%v outside (0, 2]", eps)
	}
	inv := make([]float64, k)
	for i, c := range costs {
		if c <= 0 {
			return AsymmetricConfig{}, fmt.Errorf("zeroround: cost %v at node %d not positive", c, i)
		}
		inv[i] = 1 / c
	}
	// m = Θ(C_p/ε²): the repetitions needed to amplify a (1+ε²/2) gap to C_p.
	cp := CP(p)
	m := int(math.Ceil(math.Log(cp) / math.Log1p(eps*eps/2)))
	if m < 1 {
		m = 1
	}
	norm2m := stats.LpNorm(inv, float64(2*m))
	budget := math.Log(1 / (1 - p)) // Σδ_i target
	c := math.Pow(budget, 1/float64(2*m)) * float64(m) * math.Sqrt(2*float64(n)) / norm2m

	cfg := AsymmetricConfig{
		N:            n,
		K:            k,
		Eps:          eps,
		Costs:        append([]float64(nil), costs...),
		InverseCosts: inv,
		Cost:         c,
		Samples:      make([]int, k),
		Deltas:       make([]float64, k),
		M:            m,
		Norm:         norm2m,
	}
	for i := range inv {
		s := int(math.Round(c * inv[i]))
		if s < 2*m {
			s = 2 * m
		}
		cfg.Samples[i] = s
		// Per-repetition sample count s/m gives δ′_i = (s/m)²/(2n)
		// (approximately), hence δ_i = δ′_i^m.
		sPer := float64(s) / float64(m)
		deltaPrime := sPer * (sPer - 1) / (2 * float64(n))
		if deltaPrime < 0 {
			deltaPrime = 0
		}
		cfg.Deltas[i] = math.Pow(deltaPrime, float64(m))
	}
	return cfg, nil
}

// BuildAsymmetric constructs a 0-round network from an asymmetric config.
// Under the AND rule each node runs an m-repetition amplified tester sized
// to its budget; under the threshold rule each node runs A_{δ_i} once.
func BuildAsymmetric(cfg AsymmetricConfig) (*Network, error) {
	nodes := make([]tester.Tester, cfg.K)
	for i := range nodes {
		sPer := cfg.Samples[i] / cfg.M
		if sPer < 2 {
			sPer = 2
		}
		deltaPrime := float64(sPer) * float64(sPer-1) / (2 * float64(cfg.N))
		if deltaPrime >= 1 {
			return nil, fmt.Errorf("zeroround: node %d per-repetition delta %v ≥ 1", i, deltaPrime)
		}
		node, err := tester.NewAmplified(cfg.N, deltaPrime, cfg.Eps, cfg.M)
		if err != nil {
			return nil, fmt.Errorf("zeroround: node %d: %w", i, err)
		}
		nodes[i] = node
	}
	var rule Rule = ANDRule{}
	if cfg.T > 0 {
		rule = ThresholdRule{T: cfg.T}
	}
	return NewNetwork(nodes, rule)
}

// MaxCost returns the realized maximum individual cost max_i s_i·c_i of a
// built asymmetric network (it can differ slightly from cfg.Cost due to
// rounding of the s_i).
func (cfg AsymmetricConfig) MaxCost() float64 {
	max := 0.0
	for i, s := range cfg.Samples {
		if c := float64(s) * cfg.Costs[i]; c > max {
			max = c
		}
	}
	return max
}
