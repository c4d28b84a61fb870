// Heterogeneous fleet — Section 4's asymmetric costs: a monitoring fleet
// mixes mains-powered gateways (cheap samples), battery sensors (expensive
// samples) and solar nodes in between. Rather than making every device draw
// the same number of samples, the Section 4 allocation gives node i a
// budget s_i = C/c_i so that every device pays the same maximum individual
// cost C = Θ(√n/ε²)/‖T‖₂ — and the fleet still meets the error bound.
package main

import (
	"fmt"
	"log"

	unifdist "github.com/unifdist/unifdist"
)

const (
	nBuckets = 1 << 16
	eps      = 1.0
)

func main() {
	// Fleet composition: per-sample energy costs.
	type class struct {
		name  string
		cost  float64
		count int
	}
	classes := []class{
		{name: "gateway (mains)", cost: 1, count: 2000},
		{name: "solar relay", cost: 3, count: 3000},
		{name: "battery sensor", cost: 10, count: 5000},
	}
	var costs []float64
	for _, c := range classes {
		for i := 0; i < c.count; i++ {
			costs = append(costs, c.cost)
		}
	}

	cfg, err := unifdist.SolveAsymmetricThreshold(nBuckets, eps, costs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet of %d devices, max individual cost C = %.1f (threshold T = %d)\n\n",
		len(costs), cfg.Cost, cfg.T)
	fmt.Println("class             cost/sample  samples  energy paid")
	fmt.Println("----------------------------------------------------")
	idx := 0
	for _, c := range classes {
		s := cfg.Samples[idx]
		fmt.Printf("%-17s %11.0f  %7d  %11.0f\n", c.name, c.cost, s, float64(s)*c.cost)
		idx += c.count
	}

	// Compare with the naive symmetric assignment: everyone draws what the
	// symmetric solver asks, so battery sensors pay 10× the gateways.
	sym, err := unifdist.SolveThreshold(nBuckets, len(costs), eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnaive symmetric assignment: %d samples each → battery sensors pay %.0f (vs %.1f here)\n",
		sym.SamplesPerNode, float64(sym.SamplesPerNode)*10, cfg.Cost)

	nw, err := unifdist.BuildAsymmetric(cfg)
	if err != nil {
		log.Fatal(err)
	}
	const base = 3 // names every (trial, device) sample stream
	for trial, d := range []unifdist.Distribution{
		unifdist.NewUniform(nBuckets),
		unifdist.NewTwoBump(nBuckets, eps, 5),
	} {
		accept, rejects := nw.RunAt(d, base, uint64(trial), nil, nil)
		verdict := "normal"
		if !accept {
			verdict = "ANOMALY"
		}
		fmt.Printf("input %-26s → %-8s (%d devices alarmed, T=%d)\n",
			d.Name(), verdict, rejects, cfg.T)
	}
}
