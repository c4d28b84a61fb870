package congest

import (
	"testing"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
)

// hasCollision is the package check a node runs at finalization, on a
// fresh buffer instead of the node's sortBuf; TestHasCollisionPackage
// pins its answers.
func hasCollision(pkg []uint64) bool { return dist.HasRepeat(pkg, nil) }

// TestPortQueueMatchesSliceFIFO drives the ring through random pushes,
// pops and token purges, across growth and wrap-around, and checks it
// against a plain slice FIFO.
func TestPortQueueMatchesSliceFIFO(t *testing.T) {
	r := rng.New(5)
	var q portQueue
	var model []message
	for step := 0; step < 20000; step++ {
		switch op := r.Intn(10); {
		case op < 5:
			m := message{typ: msgAnnounce, a: uint64(step)}
			if r.Intn(3) == 0 {
				m.typ = msgToken
			}
			q.push(m)
			model = append(model, m)
		case op < 9:
			if len(model) == 0 {
				continue
			}
			if got := q.pop(); got != model[0] {
				t.Fatalf("step %d: pop = %+v, want %+v", step, got, model[0])
			}
			model = model[1:]
		default:
			kept := model[:0:0]
			for _, m := range model {
				if m.typ != msgToken {
					kept = append(kept, m)
				}
			}
			if got, want := q.dropTokens(), len(model)-len(kept); got != want {
				t.Fatalf("step %d: dropTokens = %d, want %d", step, got, want)
			}
			model = kept
		}
		if q.n != len(model) {
			t.Fatalf("step %d: ring holds %d, want %d", step, q.n, len(model))
		}
	}
}
