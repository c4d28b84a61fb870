package congest

import (
	"fmt"
	"testing"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/simnet"
)

// The pins below are literals recorded from the map-based node programs
// that preceded the port-indexed ones. Any change to message order, stale
// drops, tree resets or the convergecasts moves at least one of them, so
// they hold the node programs to their old message streams, not only to
// their own earlier runs.

// pinGraph builds one of the pinned topologies on k vertices.
func pinGraph(topo string, k int) *graph.Graph {
	switch topo {
	case "line":
		return graph.NewLine(k)
	case "ring":
		return graph.NewRing(k)
	case "star":
		return graph.NewStar(k)
	case "grid":
		return graph.NewGrid(k/10, 10)
	case "tree":
		return graph.NewBalancedTree(k, 2)
	case "random":
		return graph.NewRandomConnected(k, 4.0/float64(k), uint64(k))
	}
	panic("unknown pin topology " + topo)
}

// pinTokens draws k tokens over a 1024-value domain, so packages collide.
func pinTokens(k int) []uint64 {
	r := rng.New(uint64(k) * 31)
	tokens := make([]uint64, k)
	for i := range tokens {
		tokens[i] = r.Uint64() % 1024
	}
	return tokens
}

var pinTopologies = []string{"line", "ring", "star", "grid", "tree", "random"}

// packagingPin is one recorded τ-token-packaging run.
type packagingPin struct {
	stats     simnet.Stats
	packages  int
	discarded int
	root      int
}

// packagingPins is keyed by "topology/k/τ".
var packagingPins = map[string]packagingPin{
	"line/60/4":     {simnet.Stats{Rounds: 243, Messages: 3985, Bytes: 35393, MaxMessageBytes: 9}, 15, 0, 59},
	"line/60/16":    {simnet.Stats{Rounds: 251, Messages: 4321, Bytes: 38417, MaxMessageBytes: 9}, 3, 12, 59},
	"line/200/4":    {simnet.Stats{Rounds: 803, Messages: 41295, Bytes: 370063, MaxMessageBytes: 9}, 50, 0, 199},
	"line/200/16":   {simnet.Stats{Rounds: 807, Messages: 42463, Bytes: 380575, MaxMessageBytes: 9}, 12, 8, 199},
	"ring/60/4":     {simnet.Stats{Rounds: 126, Messages: 2305, Bytes: 20273, MaxMessageBytes: 9}, 15, 0, 59},
	"ring/60/16":    {simnet.Stats{Rounds: 138, Messages: 2653, Bytes: 23405, MaxMessageBytes: 9}, 3, 12, 59},
	"ring/200/4":    {simnet.Stats{Rounds: 406, Messages: 21697, Bytes: 193681, MaxMessageBytes: 9}, 50, 0, 199},
	"ring/200/16":   {simnet.Stats{Rounds: 414, Messages: 22853, Bytes: 204085, MaxMessageBytes: 9}, 12, 8, 199},
	"star/60/4":     {simnet.Stats{Rounds: 14, Messages: 591, Bytes: 4847, MaxMessageBytes: 9}, 15, 0, 59},
	"star/60/16":    {simnet.Stats{Rounds: 22, Messages: 599, Bytes: 4919, MaxMessageBytes: 9}, 3, 12, 59},
	"star/200/4":    {simnet.Stats{Rounds: 14, Messages: 1991, Bytes: 16327, MaxMessageBytes: 9}, 50, 0, 199},
	"star/200/16":   {simnet.Stats{Rounds: 18, Messages: 1995, Bytes: 16363, MaxMessageBytes: 9}, 12, 8, 199},
	"grid/60/4":     {simnet.Stats{Rounds: 63, Messages: 2264, Bytes: 19904, MaxMessageBytes: 9}, 15, 0, 59},
	"grid/60/16":    {simnet.Stats{Rounds: 72, Messages: 2412, Bytes: 21236, MaxMessageBytes: 9}, 3, 12, 59},
	"grid/200/4":    {simnet.Stats{Rounds: 119, Messages: 13250, Bytes: 117658, MaxMessageBytes: 9}, 50, 0, 199},
	"grid/200/16":   {simnet.Stats{Rounds: 125, Messages: 14262, Bytes: 126766, MaxMessageBytes: 9}, 12, 8, 199},
	"tree/60/4":     {simnet.Stats{Rounds: 47, Messages: 987, Bytes: 8411, MaxMessageBytes: 9}, 15, 0, 59},
	"tree/60/16":    {simnet.Stats{Rounds: 55, Messages: 1087, Bytes: 9311, MaxMessageBytes: 9}, 3, 12, 59},
	"tree/200/4":    {simnet.Stats{Rounds: 65, Messages: 3905, Bytes: 33553, MaxMessageBytes: 9}, 50, 0, 199},
	"tree/200/16":   {simnet.Stats{Rounds: 70, Messages: 4253, Bytes: 36685, MaxMessageBytes: 9}, 12, 8, 199},
	"random/60/4":   {simnet.Stats{Rounds: 25, Messages: 2003, Bytes: 17555, MaxMessageBytes: 9}, 15, 0, 59},
	"random/60/16":  {simnet.Stats{Rounds: 32, Messages: 2039, Bytes: 17879, MaxMessageBytes: 9}, 3, 12, 59},
	"random/200/4":  {simnet.Stats{Rounds: 28, Messages: 7956, Bytes: 70012, MaxMessageBytes: 9}, 50, 0, 199},
	"random/200/16": {simnet.Stats{Rounds: 40, Messages: 8136, Bytes: 71632, MaxMessageBytes: 9}, 12, 8, 199},
}

func TestPackagingStatsPinned(t *testing.T) {
	for _, topo := range pinTopologies {
		for _, k := range []int{60, 200} {
			g := pinGraph(topo, k)
			for _, tau := range []int{4, 16} {
				key := fmt.Sprintf("%s/%d/%d", topo, k, tau)
				res, err := RunTokenPackaging(g, pinTokens(k), tau, Options{})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := packagingPin{res.Stats, len(res.Packages), res.Discarded, res.Root}
				if want, ok := packagingPins[key]; !ok || got != want {
					t.Errorf("%s: got\n\t%q: {simnet.Stats{Rounds: %d, Messages: %d, Bytes: %d, MaxMessageBytes: %d}, %d, %d, %d},\nwant %+v",
						key, key, got.stats.Rounds, got.stats.Messages, got.stats.Bytes, got.stats.MaxMessageBytes,
						got.packages, got.discarded, got.root, want)
				}
			}
		}
	}
}

// uniformityPin is one recorded run of the full Theorem 1.4 protocol.
type uniformityPin struct {
	stats             simnet.Stats
	rejects, virtuals int
	accept            bool
	discarded, root   int
}

// uniformityPins is keyed by "topology/k/τ"; every run uses T = 2.
var uniformityPins = map[string]uniformityPin{
	"line/60/4":     {simnet.Stats{Rounds: 303, Messages: 4103, Bytes: 36455, MaxMessageBytes: 9}, 0, 15, true, 0, 59},
	"line/60/16":    {simnet.Stats{Rounds: 315, Messages: 4439, Bytes: 39479, MaxMessageBytes: 9}, 0, 3, true, 12, 59},
	"line/200/4":    {simnet.Stats{Rounds: 1003, Messages: 41693, Bytes: 373645, MaxMessageBytes: 9}, 0, 50, true, 0, 199},
	"line/200/16":   {simnet.Stats{Rounds: 1015, Messages: 42861, Bytes: 384157, MaxMessageBytes: 9}, 0, 12, true, 8, 199},
	"ring/60/4":     {simnet.Stats{Rounds: 158, Messages: 2423, Bytes: 21335, MaxMessageBytes: 9}, 0, 15, true, 0, 59},
	"ring/60/16":    {simnet.Stats{Rounds: 170, Messages: 2771, Bytes: 24467, MaxMessageBytes: 9}, 0, 3, true, 12, 59},
	"ring/200/4":    {simnet.Stats{Rounds: 508, Messages: 22095, Bytes: 197263, MaxMessageBytes: 9}, 0, 50, true, 0, 199},
	"ring/200/16":   {simnet.Stats{Rounds: 520, Messages: 23251, Bytes: 207667, MaxMessageBytes: 9}, 0, 12, true, 8, 199},
	"star/60/4":     {simnet.Stats{Rounds: 17, Messages: 709, Bytes: 5909, MaxMessageBytes: 9}, 0, 15, true, 0, 59},
	"star/60/16":    {simnet.Stats{Rounds: 25, Messages: 717, Bytes: 5981, MaxMessageBytes: 9}, 0, 3, true, 12, 59},
	"star/200/4":    {simnet.Stats{Rounds: 17, Messages: 2389, Bytes: 19909, MaxMessageBytes: 9}, 0, 50, true, 0, 199},
	"star/200/16":   {simnet.Stats{Rounds: 21, Messages: 2393, Bytes: 19945, MaxMessageBytes: 9}, 0, 12, true, 8, 199},
	"grid/60/4":     {simnet.Stats{Rounds: 80, Messages: 2382, Bytes: 20966, MaxMessageBytes: 9}, 0, 15, true, 0, 59},
	"grid/60/16":    {simnet.Stats{Rounds: 90, Messages: 2530, Bytes: 22298, MaxMessageBytes: 9}, 0, 3, true, 12, 59},
	"grid/200/4":    {simnet.Stats{Rounds: 150, Messages: 13648, Bytes: 121240, MaxMessageBytes: 9}, 0, 50, true, 0, 199},
	"grid/200/16":   {simnet.Stats{Rounds: 162, Messages: 14660, Bytes: 130348, MaxMessageBytes: 9}, 2, 12, false, 8, 199},
	"tree/60/4":     {simnet.Stats{Rounds: 58, Messages: 1105, Bytes: 9473, MaxMessageBytes: 9}, 0, 15, true, 0, 59},
	"tree/60/16":    {simnet.Stats{Rounds: 70, Messages: 1205, Bytes: 10373, MaxMessageBytes: 9}, 0, 3, true, 12, 59},
	"tree/200/4":    {simnet.Stats{Rounds: 80, Messages: 4303, Bytes: 37135, MaxMessageBytes: 9}, 0, 50, true, 0, 199},
	"tree/200/16":   {simnet.Stats{Rounds: 92, Messages: 4651, Bytes: 40267, MaxMessageBytes: 9}, 0, 12, true, 8, 199},
	"random/60/4":   {simnet.Stats{Rounds: 30, Messages: 2121, Bytes: 18617, MaxMessageBytes: 9}, 0, 15, true, 0, 59},
	"random/60/16":  {simnet.Stats{Rounds: 37, Messages: 2157, Bytes: 18941, MaxMessageBytes: 9}, 1, 3, true, 12, 59},
	"random/200/4":  {simnet.Stats{Rounds: 35, Messages: 8354, Bytes: 73594, MaxMessageBytes: 9}, 0, 50, true, 0, 199},
	"random/200/16": {simnet.Stats{Rounds: 46, Messages: 8534, Bytes: 75214, MaxMessageBytes: 9}, 0, 12, true, 8, 199},
}

func TestUniformityStatsPinned(t *testing.T) {
	for _, topo := range pinTopologies {
		for _, k := range []int{60, 200} {
			g := pinGraph(topo, k)
			for _, tau := range []int{4, 16} {
				key := fmt.Sprintf("%s/%d/%d", topo, k, tau)
				res, err := RunUniformity(g, pinTokens(k), Params{Tau: tau, T: 2}, Options{})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := uniformityPin{res.Stats, res.Rejects, res.Virtuals, res.Accept, res.Discarded, res.Root}
				if want, ok := uniformityPins[key]; !ok || got != want {
					t.Errorf("%s: got\n\t%q: {simnet.Stats{Rounds: %d, Messages: %d, Bytes: %d, MaxMessageBytes: %d}, %d, %d, %v, %d, %d},\nwant %+v",
						key, key, got.stats.Rounds, got.stats.Messages, got.stats.Bytes, got.stats.MaxMessageBytes,
						got.rejects, got.virtuals, got.accept, got.discarded, got.root, want)
				}
			}
		}
	}
}

// aggregatePin is one recorded AggSum run.
type aggregatePin struct {
	stats simnet.Stats
	value uint64
	root  int
}

// aggregatePins is keyed by "topology/k".
var aggregatePins = map[string]aggregatePin{
	"line/60":    {simnet.Stats{Rounds: 239, Messages: 3836, Bytes: 34524, MaxMessageBytes: 9}, 32595, 59},
	"line/200":   {simnet.Stats{Rounds: 799, Messages: 40796, Bytes: 367164, MaxMessageBytes: 9}, 102487, 199},
	"ring/60":    {simnet.Stats{Rounds: 123, Messages: 2158, Bytes: 19422, MaxMessageBytes: 9}, 32595, 59},
	"ring/200":   {simnet.Stats{Rounds: 403, Messages: 21198, Bytes: 190782, MaxMessageBytes: 9}, 102487, 199},
	"star/60":    {simnet.Stats{Rounds: 10, Messages: 471, Bytes: 4239, MaxMessageBytes: 9}, 32595, 59},
	"star/200":   {simnet.Stats{Rounds: 10, Messages: 1591, Bytes: 14319, MaxMessageBytes: 9}, 102487, 199},
	"grid/60":    {simnet.Stats{Rounds: 61, Messages: 2125, Bytes: 19125, MaxMessageBytes: 9}, 32595, 59},
	"grid/200":   {simnet.Stats{Rounds: 117, Messages: 12751, Bytes: 114759, MaxMessageBytes: 9}, 102487, 199},
	"tree/60":    {simnet.Stats{Rounds: 43, Messages: 840, Bytes: 7560, MaxMessageBytes: 9}, 32595, 59},
	"tree/200":   {simnet.Stats{Rounds: 61, Messages: 3483, Bytes: 31347, MaxMessageBytes: 9}, 102487, 199},
	"random/60":  {simnet.Stats{Rounds: 21, Messages: 1853, Bytes: 16677, MaxMessageBytes: 9}, 32595, 59},
	"random/200": {simnet.Stats{Rounds: 25, Messages: 7488, Bytes: 67392, MaxMessageBytes: 9}, 102487, 199},
}

func TestAggregateStatsPinned(t *testing.T) {
	for _, topo := range pinTopologies {
		for _, k := range []int{60, 200} {
			key := fmt.Sprintf("%s/%d", topo, k)
			res, err := Aggregate(pinGraph(topo, k), pinTokens(k), AggSum)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := aggregatePin{res.Stats, res.Value, res.Root}
			if want, ok := aggregatePins[key]; !ok || got != want {
				t.Errorf("%s: got\n\t%q: {simnet.Stats{Rounds: %d, Messages: %d, Bytes: %d, MaxMessageBytes: %d}, %d, %d},\nwant %+v",
					key, key, got.stats.Rounds, got.stats.Messages, got.stats.Bytes, got.stats.MaxMessageBytes,
					got.value, got.root, want)
			}
		}
	}
}
