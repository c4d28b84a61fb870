package congest

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// valueTokens draws k tokens over a 1024-value domain at seed, as
// pinTokens does at its own seed.
func valueTokens(k int, seed uint64) []uint64 {
	r := rng.New(seed)
	tokens := make([]uint64, k)
	for i := range tokens {
		tokens[i] = r.Uint64() % 1024
	}
	return tokens
}

// checkPartition requires every package of a run on tokens to hold
// tokens[pos] at each position pos of the schedule's matching package.
func checkPartition(t *testing.T, key string, packages [][]uint64, partition [][]int, tokens []uint64) {
	t.Helper()
	if len(packages) != len(partition) {
		t.Fatalf("%s: %d packages, schedule has %d", key, len(packages), len(partition))
	}
	for i, pkg := range packages {
		if len(pkg) != len(partition[i]) {
			t.Fatalf("%s: package %d holds %d tokens, schedule %d", key, i, len(pkg), len(partition[i]))
		}
		for j, pos := range partition[i] {
			if pkg[j] != tokens[pos] {
				t.Fatalf("%s: package %d slot %d holds %d, want token %d of position %d", key, i, j, pkg[j], tokens[pos], pos)
			}
		}
	}
}

// TestProtocolsAreTokenOblivious pins what the schedule rests on: on every
// case of TestPackagingStatsPinned and TestUniformityStatsPinned, a run on
// tag tokens and runs on values drawn at two seeds give equal stats, root
// and discards, and each value run packages its tokens by the tag run's
// partition. A change that made routing read token values fails here.
func TestProtocolsAreTokenOblivious(t *testing.T) {
	for _, topo := range pinTopologies {
		for _, k := range []int{60, 200} {
			g := pinGraph(topo, k)
			tags := make([]uint64, k)
			for v := range tags {
				tags[v] = uint64(v)
			}
			for _, tau := range []int{4, 16} {
				key := fmt.Sprintf("%s/%d/%d", topo, k, tau)
				tagPkg, err := RunTokenPackaging(g, tags, tau, Options{})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				partition := make([][]int, len(tagPkg.Packages))
				for i, pkg := range tagPkg.Packages {
					for _, v := range pkg {
						partition[i] = append(partition[i], int(v))
					}
				}
				sched, err := RunSchedule(g, Params{Tau: tau, T: 2}, Options{})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				for _, values := range [][]uint64{pinTokens(k), valueTokens(k, 987654321)} {
					pkg, err := RunTokenPackaging(g, values, tau, Options{})
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if pkg.Stats != tagPkg.Stats || pkg.Root != tagPkg.Root || pkg.Discarded != tagPkg.Discarded ||
						!reflect.DeepEqual(pkg.PerNodePackages, tagPkg.PerNodePackages) {
						t.Errorf("%s packaging: values %+v, tags %+v", key, pkg, tagPkg)
					}
					checkPartition(t, key+" packaging", pkg.Packages, partition, values)

					res, err := RunUniformity(g, values, Params{Tau: tau, T: 2}, Options{})
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if res.Stats != sched.Stats || res.Root != sched.Root || res.Discarded != len(sched.Discarded) ||
						res.Virtuals != len(sched.Packages) {
						t.Errorf("%s uniformity: values %+v, schedule %+v", key, res, sched)
					}
					checkPartition(t, key+" uniformity", res.Packages, sched.Packages, values)
				}
			}
		}
	}
}

// trialSamples returns virtual node i's sample block in indexed trial t,
// drawn as VoteAt draws it: VoteStream's generator, then the batch kernel.
func trialSamples(nw *zeroround.Network, d dist.Distribution, base uint64, trial, i int, g *rng.RNG) []int {
	zeroround.VoteStream(g, base, uint64(trial), i, nw.K())
	block := make([]int, nw.Node(i).SampleSize())
	dist.SampleInto(d, block, g)
	return block
}

// TestScheduleNetworkMatchesSimulation is the differential pin of the
// reduction: on the pin topologies, trials 0–31 of the virtual network are
// laid out by the schedule's partition and fed to the full protocol, whose
// verdict and reject count must equal RunAt's.
func TestScheduleNetworkMatchesSimulation(t *testing.T) {
	const n = 128 // small enough that packages collide at both τ
	d := dist.NewUniform(n)
	gen := rng.New(0)
	verdicts := map[bool]int{}
	for _, topo := range pinTopologies {
		for _, k := range []int{60, 200} {
			g := pinGraph(topo, k)
			for _, tau := range []int{4, 16} {
				key := fmt.Sprintf("%s/%d/%d", topo, k, tau)
				p := Params{Tau: tau, T: 2}
				sched, err := RunSchedule(g, p, Options{})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				nw, err := sched.Network(n)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				base := uint64(3*k + tau)
				for trial := 0; trial < 32; trial++ {
					tokens := make([]uint64, k)
					for i, pkg := range sched.Packages {
						block := trialSamples(nw, d, base, trial, i, gen)
						for j, pos := range pkg {
							tokens[pos] = uint64(block[j])
						}
					}
					res, err := RunUniformity(g, tokens, p, Options{})
					if err != nil {
						t.Fatalf("%s trial %d: %v", key, trial, err)
					}
					accept, rejects := nw.RunAt(d, base, uint64(trial), nil, nil)
					verdicts[accept]++
					if res.Accept != accept || res.Rejects != rejects {
						t.Errorf("%s trial %d: simulation (accept=%v, rejects=%d), RunAt (accept=%v, rejects=%d)",
							key, trial, res.Accept, res.Rejects, accept, rejects)
					}
				}
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("trials decided only one way: %v", verdicts)
	}
}

// TestScheduleNetworkWorkerInvariant: the schedule and its error estimate
// are the same at any simulator and trial-pool worker count.
func TestScheduleNetworkWorkerInvariant(t *testing.T) {
	g := graph.NewGrid(4, 5)
	n := 256
	p, err := SolveParamsCalibrated(n, g.N(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	d := dist.NewUniform(n)
	base := rng.New(7).Uint64()

	type outcome struct {
		sched Schedule
		est   float64
	}
	var want outcome
	for i, workers := range []int{1, 2, 3, 8} {
		sched, err := RunSchedule(g, p, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		nw, err := sched.Network(n)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		nw.Workers = workers
		got := outcome{sched, nw.EstimateErrorAt(d, true, 25, base)}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: %+v, want %+v", workers, got, want)
		}
	}
}

func TestScheduleNetworkRejectsFar(t *testing.T) {
	g := graph.NewRandomConnected(2000, 6.0/2000, 3)
	n := 1024
	p, err := SolveParamsCalibrated(n, g.N(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := RunSchedule(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := sched.Network(n)
	if err != nil {
		t.Fatal(err)
	}
	est := nw.EstimateErrorAt(dist.NewHalfSupport(n), false, 1000, rng.New(5).Uint64())
	if est > 1.0/3 {
		t.Fatalf("far-input error rate %v > 1/3", est)
	}
}

func TestScheduleRejectsTinyTau(t *testing.T) {
	if _, err := RunSchedule(graph.NewRing(8), Params{Tau: 1}, Options{}); err == nil {
		t.Fatal("expected error for τ < 2")
	}
}
