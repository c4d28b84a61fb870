package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"github.com/unifdist/unifdist/internal/experiment"
	"github.com/unifdist/unifdist/internal/obs/trace"
)

// reproTables are the paper tables repro-quick reproduces. E7 is left
// out: one quick E7 pass takes longer than all the others together and
// allocates tens of GB, so its spread would drown every other table.
var reproTables = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"}

// reproWarmup are the cheap tables run once in set-up.
var reproWarmup = []string{"E9", "E11"}

// reproWorkers is the experiment worker count: one per core.
const reproWorkers = 2

// reproBench runs passes over a fixed table list at one seed and checks
// that every pass renders each table byte-identically to the first.
type reproBench struct {
	tables []string
	seed   uint64
	ref    map[string][]byte    // first pass's rendering per table
	ms     map[string][]float64 // wall ms per execution, by table
	alloc  map[string][]float64 // MiB allocated per execution, by table
	passes []time.Duration
	failed int
	tried  int
	first  error
}

func newReproBench(tables []string, seed uint64) *reproBench {
	return &reproBench{tables: tables, seed: seed, ref: map[string][]byte{},
		ms: map[string][]float64{}, alloc: map[string][]float64{}}
}

// pass executes every table once through experiment.Execute in quick
// mode, with spans to tr (which may be nil).
func (b *reproBench) pass(tr *trace.Tracer) {
	start := time.Now()
	root := tr.Start("repro.pass", trace.Context{})
	for _, id := range b.tables {
		b.tried++
		if err := b.table(tr, root.Context(), id); err != nil {
			b.failed++
			if b.first == nil {
				b.first = err
			}
		}
	}
	root.End()
	b.passes = append(b.passes, time.Since(start))
}

// table executes one table and checks it: non-empty, and identical to its
// rendering in the first pass.
func (b *reproBench) table(tr *trace.Tracer, ctx trace.Context, id string) error {
	e, ok := experiment.Lookup(id)
	if !ok {
		return fmt.Errorf("%s: no such experiment", id)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sp := tr.Start("experiment.Execute."+id, ctx)
	res, err := e.Execute(&experiment.RunContext{Mode: experiment.Quick, Seed: b.seed, Workers: reproWorkers})
	sp.End()
	b.ms[id] = append(b.ms[id], float64(time.Since(start))/1e6)
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	b.alloc[id] = append(b.alloc[id], float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	if len(res.Table.Rows) == 0 {
		return fmt.Errorf("%s: empty table", id)
	}
	var buf bytes.Buffer
	if err := res.Table.Render(&buf); err != nil {
		return fmt.Errorf("%s: render: %w", id, err)
	}
	ref, seen := b.ref[id]
	if !seen {
		b.ref[id] = buf.Bytes()
		return nil
	}
	if !bytes.Equal(ref, buf.Bytes()) {
		return fmt.Errorf("%s: table differs from the first pass at seed %d", id, b.seed)
	}
	return nil
}

// run executes passes until the next one would end past the deadline,
// and at least minPasses of them.
func (b *reproBench) run(tr *trace.Tracer, dur time.Duration, minPasses int) time.Duration {
	start := time.Now()
	for {
		b.pass(tr)
		elapsed := time.Since(start)
		if len(b.passes) >= minPasses && elapsed+b.passes[len(b.passes)-1] > dur {
			return elapsed
		}
	}
}
