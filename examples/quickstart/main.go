// Quickstart: distinguish the uniform distribution from an ε-far one with
// a 0-round network of k nodes, each drawing only Θ(√(n/k)/ε²) samples —
// far fewer than the Θ(√n/ε²) a single tester would need.
package main

import (
	"fmt"
	"log"

	unifdist "github.com/unifdist/unifdist"
)

func main() {
	const (
		n   = 1 << 16 // domain size
		k   = 8000    // network size
		eps = 1.0     // L1 distance parameter
	)

	// Resolve Theorem 1.2's parameters: per-node sample count and the
	// rejection threshold T.
	cfg, err := unifdist.SolveThreshold(n, k, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: k=%d nodes, %d samples each (solo tester would need ~%d)\n",
		k, cfg.SamplesPerNode, unifdist.BaselineSampleSize(n, eps))
	fmt.Printf("decision rule: reject iff ≥ %d nodes see a collision (feasible=%v)\n\n",
		cfg.T, cfg.Feasible)

	nw, err := unifdist.BuildThreshold(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Each input is one indexed trial: node i's samples in trial t are a pure
	// function of (base, t, i), so the same verdicts come out of k real
	// machines voting at the same base.
	const base = 42
	for trial, d := range []unifdist.Distribution{
		unifdist.NewUniform(n),
		unifdist.NewTwoBump(n, eps, 7), // L1 distance exactly ε from uniform
	} {
		accept, rejects := nw.RunAt(d, base, uint64(trial), nil, nil)
		verdict := "UNIFORM"
		if !accept {
			verdict = "FAR FROM UNIFORM"
		}
		fmt.Printf("input %-28s → %-18s (%d/%d nodes rejected, T=%d)\n",
			d.Name(), verdict, rejects, k, cfg.T)
	}
}
