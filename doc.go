// Package unifdist is a library for distributed uniformity testing,
// reproducing "Distributed Uniformity Testing" (Fischer, Meir, Oshman;
// PODC 2018).
//
// # Problem
//
// A network of k nodes each holds s i.i.d. samples from an unknown
// distribution µ on {0, …, n−1}. The nodes must jointly decide whether
// µ is the uniform distribution or ε-far from it in L1 distance, while
// minimizing the number of samples per node and the communication cost.
//
// # What the library provides
//
//   - Centralized testers: the single-collision (δ, 1+γε²)-gap tester A_δ
//     (Theorem 3.1), its m-repetition amplification, and the classical
//     Θ(√n/ε²) collision-counting baseline.
//   - 0-round distributed testers: the AND-rule network of Theorem 1.1, the
//     threshold network of Theorem 1.2, and the asymmetric-cost variants of
//     Section 4, each with a parameter solver that resolves the paper's
//     displayed inequalities into concrete sample counts.
//   - CONGEST protocols (Theorem 1.4): leader election, BFS trees, τ-token
//     packaging (Theorem 5.1) and the full uniformity protocol, running on
//     a synchronous message-passing simulator with per-edge bandwidth
//     accounting.
//   - LOCAL protocols (Section 6): Luby MIS on the power graph G^r, beacon
//     routing of samples to MIS nodes, and the AND-rule decision.
//   - The SMP Equality protocol with asymmetric error (Lemma 7.3), built on
//     a concatenated Reed–Solomon ∘ Golay code with relative distance 1/6.
//   - The identity→uniformity filter reduction (per-node, private coins).
//   - Synthetic distributions (uniform, two-bump/Paninski, Zipf, mixtures)
//     and a deterministic splittable RNG for reproducible experiments.
//
// # Quick start
//
//	cfg, err := unifdist.SolveThreshold(1<<16, 8000, 1.0)
//	if err != nil { ... }
//	nw, err := unifdist.BuildThreshold(cfg)
//	if err != nil { ... }
//	// Trial 0 at base seed 42: node i's samples are a pure function of
//	// (42, 0, i), so k real machines at base 42 reach the same verdict.
//	accept, rejects := nw.RunAt(unifdist.NewUniform(1<<16), 42, 0, nil, nil)
//	errRate := nw.EstimateErrorAt(unifdist.NewUniform(1<<16), true, 1000, 42)
//
// See the examples directory for runnable scenarios and DESIGN.md /
// EXPERIMENTS.md for the experiment index reproducing every theorem.
package unifdist
