// CONGEST on a grid — Theorem 1.4 end to end: every node of a 80×100 grid
// holds a single sample; the network elects a leader, builds a BFS tree,
// packages the samples into groups of τ (Theorem 5.1's token packaging),
// tests each package for a collision, and aggregates the verdict — all
// with 16-byte messages and O(D + n/(kε⁴)) rounds.
package main

import (
	"fmt"
	"log"

	unifdist "github.com/unifdist/unifdist"
)

func main() {
	const (
		rows, cols = 80, 100
		k          = rows * cols
		n          = 1 << 12
		eps        = 1.0
	)
	g := unifdist.NewGrid(rows, cols)
	p, err := unifdist.SolveCongestCalibrated(n, k, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid %dx%d (D=%d), domain n=%d\n", rows, cols, rows+cols-2, n)
	fmt.Printf("protocol: τ=%d (asymptotic n/(kε⁴) = %.1f), threshold T=%d, ~%d virtual nodes\n\n",
		p.Tau, unifdist.PredictedTau(n, k, eps), p.T, p.VirtualNodes)

	r := unifdist.NewRNG(11)
	for _, d := range []unifdist.Distribution{
		unifdist.NewUniform(n),
		unifdist.NewTwoBump(n, eps, 3),
	} {
		tokens := make([]uint64, k) // node v's one sample
		for v := range tokens {
			tokens[v] = uint64(d.Sample(r))
		}
		res, err := unifdist.RunCongestUniformity(g, tokens, p, unifdist.CongestOptions{})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "UNIFORM"
		if !res.Accept {
			verdict = "FAR FROM UNIFORM"
		}
		fmt.Printf("input %-26s → %-17s\n", d.Name(), verdict)
		fmt.Printf("  leader: node %d; %d packages, %d rejecting (T=%d), %d tokens discarded\n",
			res.Root, res.Virtuals, res.Rejects, p.T, res.Discarded)
		fmt.Printf("  rounds: %d (D+τ = %d), messages: %d, max message: %d bytes\n\n",
			res.Stats.Rounds, rows+cols-2+p.Tau, res.Stats.Messages, res.Stats.MaxMessageBytes)
	}
}
