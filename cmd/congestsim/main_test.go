package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunCongestSmoke(t *testing.T) {
	if err := run([]string{"-k", "80", "-n", "4096", "-topology", "random"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunPackagingSmoke(t *testing.T) {
	if err := run([]string{"-k", "50", "-packaging", "-tau", "4", "-topology", "tree"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunLocalSmoke(t *testing.T) {
	if err := run([]string{"-model", "local", "-k", "60", "-n", "1048576", "-radius", "3"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceSmoke(t *testing.T) {
	if err := run([]string{"-k", "40", "-trace", "-topology", "ring"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSONDocument(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "run.jsonl")
	var buf bytes.Buffer
	if err := run([]string{"-k", "60", "-n", "4096", "-topology", "ring", "-json", "-journal", journalPath}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Provenance struct {
			Tool string `json:"tool"`
			Seed uint64 `json:"seed"`
		} `json:"provenance"`
		Results struct {
			Mode   string `json:"mode"`
			Accept *bool  `json:"accept"`
			Stats  struct {
				Rounds   int `json:"Rounds"`
				Messages int `json:"Messages"`
			} `json:"stats"`
			Rounds []struct {
				Round    int `json:"Round"`
				Messages int `json:"Messages"`
			} `json:"rounds"`
		} `json:"results"`
		Metrics *struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("document not parseable: %v\n%s", err, buf.String())
	}
	if doc.Provenance.Tool != "congestsim" {
		t.Errorf("tool = %q", doc.Provenance.Tool)
	}
	if doc.Results.Mode != "uniformity" || doc.Results.Accept == nil {
		t.Errorf("results = %+v", doc.Results)
	}
	if doc.Results.Stats.Messages == 0 || len(doc.Results.Rounds) == 0 {
		t.Errorf("missing stats/rounds: %+v", doc.Results)
	}
	if doc.Metrics == nil || doc.Metrics.Counters["simnet.messages"] == 0 {
		t.Errorf("metrics missing: %+v", doc.Metrics)
	}

	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		kinds[ev.Kind]++
	}
	if kinds["run_start"] != 1 || kinds["run_end"] != 1 || kinds["sim_round"] == 0 {
		t.Errorf("journal kinds = %v", kinds)
	}
}

func TestRunPackagingJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-k", "50", "-packaging", "-tau", "4", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("document not parseable: %v", err)
	}
	results := doc["results"].(map[string]any)
	if results["mode"] != "packaging" || results["packages"].(float64) <= 0 {
		t.Errorf("results = %v", results)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{name: "bad model", args: []string{"-model", "bogus"}, want: "unknown model"},
		{name: "bad topology", args: []string{"-topology", "bogus"}, want: "unknown topology"},
		{name: "bad dist", args: []string{"-dist", "bogus"}, want: "unknown distribution"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestBuildTopologies(t *testing.T) {
	for _, name := range []string{"random", "line", "ring", "grid", "star", "tree"} {
		g, err := buildTopology(name, 30, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() < 30 {
			t.Errorf("%s: %d nodes, want ≥ 30", name, g.N())
		}
		if !g.IsConnected() {
			t.Errorf("%s: disconnected", name)
		}
	}
}
