// Sensor-network identity testing — the paper's second motivating scenario
// (§1): sensors at a manufacturing plant measure temperatures whose normal
// behaviour follows a known, non-uniform distribution η (a discretized
// bell curve around the setpoint). Each sensor independently applies the
// identity→uniformity filter to its readings using its private randomness
// — exactly the per-node reduction the paper's introduction describes —
// and the fleet then runs the threshold-rule 0-round uniformity tester on
// the filtered samples.
package main

import (
	"fmt"
	"log"
	"math"

	unifdist "github.com/unifdist/unifdist"
)

const (
	tempBins = 200 // discretized temperature range
	kSensors = 8000
	eps      = 0.8
)

func main() {
	// Normal operating distribution: a discretized Gaussian around bin 100.
	eta := make([]float64, tempBins)
	for i := range eta {
		d := float64(i-100) / 18
		eta[i] = math.Exp(-d * d / 2)
	}
	target, err := unifdist.NewHistogram(eta, "calibrated-profile")
	if err != nil {
		log.Fatal(err)
	}

	// The filter maps the calibrated profile to (nearly) uniform on M
	// buckets. The bell curve's near-zero tail bins each still need one
	// bucket, so we use a grain 8× finer than the ε/4 minimum to keep the
	// filtered healthy profile well inside the tester's acceptance region.
	m := 8 * unifdist.GrainForEpsilon(tempBins, eps)
	filter, err := unifdist.NewFilter(eta, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("filter: %d temperature bins → %d uniform buckets (rounding error %.4f ≤ ε/4 = %.2f)\n",
		tempBins, m, filter.RoundingError(), eps/4)

	// A threshold-rule uniformity tester on the filtered domain.
	cfg, err := unifdist.SolveThreshold(m, kSensors, eps/2)
	if err != nil {
		log.Fatal(err)
	}
	nw, err := unifdist.BuildThreshold(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d sensors, %d filtered readings each, alarm threshold T=%d\n\n",
		kSensors, cfg.SamplesPerNode, cfg.T)

	// Scenarios: healthy plant (µ = η); drifted setpoint (bell moved);
	// stuck sensors (readings pile up at one bin).
	drifted := make([]float64, tempBins)
	for i := range drifted {
		d := float64(i-135) / 18
		drifted[i] = math.Exp(-d * d / 2)
	}
	driftDist, err := unifdist.NewHistogram(drifted, "drifted-setpoint")
	if err != nil {
		log.Fatal(err)
	}
	stuck := unifdist.NewPointMassMixture(tempBins, 100, 0.5)

	const base = 7 // names every (trial, sensor) sample stream
	for trial, scenario := range []struct {
		name string
		mu   unifdist.Distribution
	}{
		{name: "healthy (µ = η)", mu: target},
		{name: "drifted setpoint", mu: driftDist},
		{name: "stuck sensors", mu: stuck},
	} {
		filtered, err := unifdist.NewFiltered(scenario.mu, filter)
		if err != nil {
			log.Fatal(err)
		}
		accept, alarms := nw.RunAt(filtered, base, uint64(trial), nil, nil)
		verdict := "matches calibration"
		if !accept {
			verdict = "ANOMALY: distribution shifted"
		}
		fmt.Printf("%-20s L1(µ,η)≈%.2f  alarms=%4d  → %s\n",
			scenario.name, unifdist.L1(scenario.mu, target), alarms, verdict)
	}
}
