// DDoS detection — the paper's motivating scenario (§1): a fleet of
// routers each samples source addresses from the traffic it forwards.
// Under normal load the (hashed) sources are uniform over n buckets; during
// a distributed denial-of-service attack the distribution skews toward the
// attacking subnets. No router talks to another: each applies the
// single-collision tester to its own few samples and raises an alarm with
// small probability — the AND decision rule (the network "rejects" iff some
// router alarms) aggregates the weak per-router signals.
package main

import (
	"fmt"
	"log"
	"strings"

	unifdist "github.com/unifdist/unifdist"
)

const (
	nBuckets = 1 << 16 // hashed source-address space
	kRouters = 20000
	eps      = 1.0
	pTarget  = 1.0 / 3
)

func main() {
	cfg, err := unifdist.SolveAND(nBuckets, kRouters, eps, pTarget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d routers, %d sampled packets each (m=%d repetitions, gap %.2f vs required %.2f, feasible=%v)\n\n",
		kRouters, cfg.SamplesPerNode, cfg.M, cfg.NodeGap, cfg.RequiredGap, cfg.Feasible)

	nw, err := unifdist.BuildAND(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Each window is one indexed trial: router i's traffic samples in window
	// t are a pure function of (base, t, i), so any router can replay its
	// own vote and the verdicts match a real deployment at the same base.
	const base = 2024

	// Timeline: normal traffic, then an attack concentrating 30% of the
	// traffic on a handful of target buckets, then a heavier attack.
	attack30 := unifdist.NewPointMassMixture(nBuckets, 12345, 0.3)
	attack60 := unifdist.NewPointMassMixture(nBuckets, 12345, 0.6)
	timeline := []struct {
		window  string
		traffic unifdist.Distribution
	}{
		{window: "00:00-00:05 normal", traffic: unifdist.NewUniform(nBuckets)},
		{window: "00:05-00:10 normal", traffic: unifdist.NewUniform(nBuckets)},
		{window: "00:10-00:15 attack (30% skew)", traffic: attack30},
		{window: "00:15-00:20 attack (60% skew)", traffic: attack60},
		{window: "00:20-00:25 normal", traffic: unifdist.NewUniform(nBuckets)},
	}

	fmt.Println("window                          alarms  verdict")
	fmt.Println(strings.Repeat("-", 58))
	for trial, slot := range timeline {
		accept, alarms := nw.RunAt(slot.traffic, base, uint64(trial), nil, nil)
		verdict := "ok"
		if !accept {
			verdict = "DDOS ALERT"
		}
		fmt.Printf("%-30s  %6d  %s\n", slot.window, alarms, verdict)
	}
	fmt.Printf("\ndistances from uniform: 30%% attack → %.2f, 60%% attack → %.2f (ε=%.1f)\n",
		unifdist.L1FromUniform(attack30), unifdist.L1FromUniform(attack60), eps)
	// The solver spends the whole completeness budget p on the routers'
	// per-window alarm rate, so a normal window raises a false alert with
	// probability up to p; a smaller pTarget buys fewer with more samples.
	fmt.Printf("a normal window false-alarms with probability ≤ p = %.2f (Theorem 1.1)\n", pTarget)
}
