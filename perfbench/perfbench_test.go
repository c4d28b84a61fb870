package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/unifdist/unifdist/internal/wire"
)

// benchmarkDoc is the part of ../BENCHMARK.json the output must match.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func loadDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// resultLine is the last line of the benchmark's output.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// checkOutput asserts that the run passed its correctness gate and that
// its result line names every metric of want with its unit.
func checkOutput(t *testing.T, out []byte, want []metricJSON) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
		if !strings.Contains(string(out), m.Name) {
			t.Errorf("report does not name %s", m.Name)
		}
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	doc := loadDoc(t)
	for _, c := range []struct {
		name string
		doc  []metricJSON
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.doc) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.doc), len(c.defs))
		}
		for i, d := range c.defs {
			if m := c.doc[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.name, i, m, d)
			}
		}
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "svc-frames,tree-batched,repro-quick" {
		t.Errorf("workloads %s", got)
	}
}

// testShapes are the service workloads cut to a few short sessions; they
// run through the same code as the benchmark.
var testShapes = []struct {
	name string
	w    svcWorkload
}{
	{"svc-frames", svcWorkload{k: 64, trials: 32, journal: true, pool: 4, warmup: 1}},
	{"tree-batched", svcWorkload{k: 64, trials: 2 * wire.MaxPartialEntries, batch: 1024, shards: 2, pool: 4, warmup: 1}},
}

func TestServiceWorkloads(t *testing.T) {
	doc := loadDoc(t)
	for _, c := range testShapes {
		for _, traced := range []bool{false, true} {
			o := options{workload: c.name, seed: 7, dur: 300 * time.Millisecond, trace: traced, dir: t.TempDir()}
			res, err := runSvc(c.w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", c.name, traced, err)
			}
			var out bytes.Buffer
			if err := report(&out, o, res); err != nil {
				t.Fatal(err)
			}
			want := doc.EndToEnd
			if traced {
				want = doc.PerLayer
			}
			checkOutput(t, out.Bytes(), want)
			if traced {
				checkLedger(t, c.name, res)
			}
		}
	}
}

// checkLedger asserts that the traced run separates the layers as the
// workloads are designed to.
func checkLedger(t *testing.T, name string, res *result) {
	t.Helper()
	v := res.values
	reads := v["transport.read_syscalls_per_vote"]
	switch name {
	case "svc-frames":
		if reads < 1.5 || v["cluster.partial_apply_ns_per_entry"] != 0 || v["service.journal_bytes_per_session"] == 0 {
			t.Errorf("svc-frames ledger: reads/vote %g, partial apply %g, journal bytes %g",
				reads, v["cluster.partial_apply_ns_per_entry"], v["service.journal_bytes_per_session"])
		}
	case "tree-batched":
		if reads > 0.05 || v["cluster.partial_apply_ns_per_entry"] <= 0 || v["cluster.agg_session_ms"] <= 0 {
			t.Errorf("tree-batched ledger: reads/vote %g, partial apply %g, agg session %g",
				reads, v["cluster.partial_apply_ns_per_entry"], v["cluster.agg_session_ms"])
		}
	}
}

func TestReproQuick(t *testing.T) {
	doc := loadDoc(t)
	for _, traced := range []bool{false, true} {
		o := options{workload: "repro-quick", seed: 7, dur: 200 * time.Millisecond, trace: traced,
			dir: t.TempDir(), tables: []string{"E11"}}
		res, err := runRepro(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.attempted < 2 {
			t.Errorf("attempted %d tables, want at least two passes", res.attempted)
		}
		var out bytes.Buffer
		if err := report(&out, o, res); err != nil {
			t.Fatal(err)
		}
		want := doc.EndToEnd
		if traced {
			want = doc.PerLayer
			if res.values["experiment.E11_ms"] <= 0 || res.values["wire.bytes_per_vote"] != 0 ||
				res.values["cluster.apply_ns_per_vote"] != 0 || res.values["service.open_ms"] != 0 {
				t.Errorf("repro-quick ledger: E11 %g ms, wire %g, cluster %g, service %g",
					res.values["experiment.E11_ms"], res.values["wire.bytes_per_vote"],
					res.values["cluster.apply_ns_per_vote"], res.values["service.open_ms"])
			}
		}
		checkOutput(t, out.Bytes(), want)
	}
}

// TestGateCountsWrongReports corrupts the references and checks that every
// session then fails the correctness gate.
func TestGateCountsWrongReports(t *testing.T) {
	b, err := setupSvc(testShapes[0].w, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	for _, in := range b.inputs {
		in.rejects[len(in.rejects)-1]++
	}
	ph := b.runPhase(nil, time.Time{}, 2)
	if ph.failed != ph.sessions() || ph.sessions() != 2*clients || ph.votes != 0 {
		t.Fatalf("%d of %d sessions failed, %d votes verified; want all failed", ph.failed, ph.sessions(), ph.votes)
	}
	if !strings.Contains(ph.firstErr.Error(), "want verdict") {
		t.Errorf("first error %v", ph.firstErr)
	}
}

// TestReproGateCountsChangedTables checks that a table rendering unlike
// the first pass counts as a failure.
func TestReproGateCountsChangedTables(t *testing.T) {
	b := newReproBench([]string{"E11"}, 5)
	b.pass(nil)
	b.ref["E11"] = append(b.ref["E11"], '!')
	b.pass(nil)
	if b.tried != 2 || b.failed != 1 {
		t.Fatalf("tried %d failed %d, want 2 and 1", b.tried, b.failed)
	}
}

// TestPlanIsPure checks that session i's input is a function of (seed, i)
// of kind i mod 4 — the rule alternating every session and the input
// every two — and that the seed chooses among the entries of that kind.
func TestPlanIsPure(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		p := planInput(11, i, 16)
		if p != planInput(11, i, 16) || p%4 != i%4 {
			t.Fatalf("session %d: entry %d", i, p)
		}
		seen[p] = true
	}
	if len(seen) < 8 {
		t.Errorf("64 sessions used only %d of 16 entries", len(seen))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "bogus", "--seconds", "1"},
		{"--workload", "svc-frames", "--trace", "2"},
		{"--workload", "svc-frames", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
