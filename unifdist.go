package unifdist

import (
	"github.com/unifdist/unifdist/internal/congest"
	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/local"
	"github.com/unifdist/unifdist/internal/reduction"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/smp"
	"github.com/unifdist/unifdist/internal/tester"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// Randomness.
type (
	// RNG is the library's deterministic splittable random generator.
	RNG = rng.RNG
)

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// Distributions.
type (
	// Distribution is a discrete distribution on {0, …, N()−1}.
	Distribution = dist.Distribution
	// Uniform is the uniform distribution U(n).
	Uniform = dist.Uniform
	// TwoBump is the canonical ε-far paired-perturbation instance.
	TwoBump = dist.TwoBump
	// Histogram is an explicit probability vector with O(1) sampling.
	Histogram = dist.Histogram
)

// Sampling and collision kernels.
type (
	// BatchSampler is the optional batch-sampling refinement of Distribution.
	BatchSampler = dist.BatchSampler
	// CollisionScratch holds reusable state for allocation-free collision
	// statistics across many sample blocks.
	CollisionScratch = dist.CollisionScratch
)

// Distribution constructors and measures, re-exported from internal/dist.
var (
	NewUniform           = dist.NewUniform
	NewTwoBump           = dist.NewTwoBump
	NewHistogram         = dist.NewHistogram
	NewZipf              = dist.NewZipf
	NewPointMassMixture  = dist.NewPointMassMixture
	NewHalfSupport       = dist.NewHalfSupport
	L1FromUniform        = dist.L1FromUniform
	L1                   = dist.L1
	TV                   = dist.TV
	CollisionProbability = dist.CollisionProbability
	SampleN              = dist.SampleN
	SampleInto           = dist.SampleInto
	NewCollisionScratch  = dist.NewCollisionScratch
	HasCollision         = dist.HasCollision
	CountCollisions      = dist.CountCollisions
)

// Centralized testers (Section 3).
type (
	// Tester is a centralized accept/reject uniformity tester.
	Tester = tester.Tester
	// GapParams are the resolved single-collision tester parameters.
	GapParams = tester.GapParams
	// BlockCollision is the collision tester: m blocks, reject iff every
	// block holds a repeat. NewSingleCollision builds the (δ, 1+γε²)-gap
	// tester A_δ (m = 1) and NewAmplified its m-repetition amplification.
	BlockCollision = tester.BlockCollision
	// CollisionCounting is the classical Θ(√n/ε²) baseline.
	CollisionCounting = tester.CollisionCounting
)

// Centralized constructors and solvers, re-exported from internal/tester.
var (
	SolveGap               = tester.SolveGap
	NewSingleCollision     = tester.NewSingleCollision
	NewAmplified           = tester.NewAmplified
	NewCollisionCounting   = tester.NewCollisionCounting
	BaselineSampleSize     = tester.BaselineSampleSize
	EstimateRejectProb     = tester.EstimateRejectProb
	RunTester              = tester.Run
	FarRejectLowerBound    = tester.FarRejectLowerBound
	UniformNoCollisionProb = tester.UniformNoCollisionProb
)

// 0-round distributed testers (Sections 3.2 and 4).
type (
	// Network is a 0-round distributed tester.
	Network = zeroround.Network
	// Rule is a network decision rule.
	Rule = zeroround.Rule
	// ANDRule accepts iff every node accepts.
	ANDRule = zeroround.ANDRule
	// ThresholdRule rejects iff at least T nodes reject.
	ThresholdRule = zeroround.ThresholdRule
	// ANDConfig is Theorem 1.1's resolved configuration.
	ANDConfig = zeroround.ANDConfig
	// ThresholdConfig is Theorem 1.2's resolved configuration.
	ThresholdConfig = zeroround.ThresholdConfig
	// AsymmetricConfig is Section 4's per-node cost configuration.
	AsymmetricConfig = zeroround.AsymmetricConfig
)

// 0-round solvers and builders, re-exported from internal/zeroround.
var (
	SolveAND                 = zeroround.SolveAND
	BuildAND                 = zeroround.BuildAND
	SolveThreshold           = zeroround.SolveThreshold
	BuildThreshold           = zeroround.BuildThreshold
	SolveAsymmetricAND       = zeroround.SolveAsymmetricAND
	SolveAsymmetricThreshold = zeroround.SolveAsymmetricThreshold
	BuildAsymmetric          = zeroround.BuildAsymmetric
	NewNetwork               = zeroround.NewNetwork
	GapConstant              = zeroround.CP
)

// Network topologies.
type (
	// Graph is a simple undirected network topology.
	Graph = graph.Graph
)

// Topology constructors, re-exported from internal/graph.
var (
	NewGraph           = graph.New
	NewLine            = graph.NewLine
	NewRing            = graph.NewRing
	NewStar            = graph.NewStar
	NewComplete        = graph.NewComplete
	NewGrid            = graph.NewGrid
	NewBalancedTree    = graph.NewBalancedTree
	NewRandomConnected = graph.NewRandomConnected
)

// CONGEST protocols (Theorems 1.4 and 5.1).
type (
	// CongestParams is the CONGEST protocol configuration.
	CongestParams = congest.Params
	// CongestOptions are a CONGEST run's simulator settings (tracer,
	// worker pool).
	CongestOptions = congest.Options
	// PackagingResult reports a τ-token-packaging run.
	PackagingResult = congest.PackagingResult
	// CongestResult reports a full CONGEST uniformity run.
	CongestResult = congest.UniformityResult
	// AggregateOp selects a distributed reduction (sum/min/max).
	AggregateOp = congest.AggregateOp
	// AggregateResult reports a distributed reduction.
	AggregateResult = congest.AggregateResult
)

// Distributed reduction operators.
const (
	AggSum = congest.AggSum
	AggMin = congest.AggMin
	AggMax = congest.AggMax
)

// CONGEST solvers and drivers, re-exported from internal/congest.
var (
	SolveCongest           = congest.SolveParams
	SolveCongestCalibrated = congest.SolveParamsCalibrated
	RunTokenPackaging      = congest.RunTokenPackaging
	RunCongestUniformity   = congest.RunUniformity
	RunCongestMulti        = congest.RunUniformityMulti
	Aggregate              = congest.Aggregate
	RunCongestUnknownK     = congest.RunUniformityUnknownK
	PredictedTau           = congest.PredictedTau
)

// LOCAL protocols (Section 6).
type (
	// LocalParams is the LOCAL protocol configuration.
	LocalParams = local.Params
	// LocalResult reports a LOCAL uniformity run.
	LocalResult = local.Result
	// MISResult reports a Luby MIS execution.
	MISResult = local.MISResult
)

// LOCAL solvers and drivers, re-exported from internal/local.
var (
	SolveLocal         = local.SolveLocal
	RunLocalUniformity = local.RunUniformity
	RunLocalMulti      = local.RunUniformityMulti
	LubyMIS            = local.LubyMIS
	VerifyMIS          = local.VerifyMIS
)

// SMP Equality (Lemma 7.3).
type (
	// Equality is the simultaneous Equality protocol with asymmetric error.
	Equality = smp.Equality
	// SMPMessage is one player's message to the referee.
	SMPMessage = smp.Message
)

// NewEquality builds the Lemma 7.3 protocol, re-exported from internal/smp.
var NewEquality = smp.NewEquality

// Identity→uniformity reduction.
type (
	// Filter maps samples so a fixed target distribution becomes uniform.
	Filter = reduction.Filter
	// Filtered is a source distribution pushed through a Filter.
	Filtered = reduction.Filtered
)

// Reduction constructors, re-exported from internal/reduction.
var (
	NewFilter       = reduction.NewFilter
	NewFiltered     = reduction.NewFiltered
	GrainForEpsilon = reduction.GrainForEpsilon
)
