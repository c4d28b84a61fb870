package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/dist"
)

// startServe runs `unifcluster serve` in the background on a free port and
// returns its address; cleanup stops it and verifies a clean exit.
func startServe(t *testing.T, extra ...string) string {
	t.Helper()
	addrCh := make(chan string, 1)
	oldReady, oldStop := serveReady, serveStop
	serveReady = func(a string) { addrCh <- a }
	serveStop = make(chan struct{})
	stop := serveStop
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"serve", "-addr", "127.0.0.1:0"}, extra...), io.Discard)
	}()
	addr := <-addrCh
	t.Cleanup(func() {
		close(stop)
		if err := <-done; err != nil {
			t.Errorf("serve exited with error: %v", err)
		}
		serveReady, serveStop = oldReady, oldStop
	})
	return addr
}

// submitJSON runs `unifcluster submit -json` and returns the parsed report.
func submitJSON(t *testing.T, args []string) (*cluster.Report, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(append([]string{"submit", "-json"}, args...), &buf); err != nil {
		return nil, err
	}
	var doc struct {
		Results struct {
			Report *cluster.Report `json:"report"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("submit document not parseable: %v\n%s", err, buf.String())
	}
	if doc.Results.Report == nil {
		return nil, fmt.Errorf("submit document has no report:\n%s", buf.String())
	}
	return doc.Results.Report, nil
}

// TestServeSubmitMultiTenantSmoke is the CI multi-tenant smoke: eight
// overlapping TCP sessions — mixed rules, seeds, batching and seeded
// faults — against one `unifcluster serve`, each byte-identical (sans
// transport stats) to its solo run, with zero cross-session dedup
// collisions.
func TestServeSubmitMultiTenantSmoke(t *testing.T) {
	dir := t.TempDir()
	addr := startServe(t, "-max-sessions", "8", "-journal-dir", dir)

	type tcase struct {
		name string
		args []string // submit args beyond -addr/-tenant
		cfg  cluster.Config
		rule string
		kk   int
		nn   int
		dst  string
		plan *cluster.FaultPlan
	}
	cases := []tcase{
		{name: "thr-1", args: []string{"-k", "40", "-n", "64", "-trials", "6", "-seed", "1", "-dist", "twobump"},
			cfg: cluster.Config{Trials: 6, BaseSeed: 1}, rule: "threshold", kk: 40, nn: 64, dst: "twobump"},
		{name: "thr-2", args: []string{"-k", "40", "-n", "64", "-trials", "6", "-seed", "9", "-dist", "twobump", "-batch", "16"},
			cfg: cluster.Config{Trials: 6, BaseSeed: 9, Batch: 16}, rule: "threshold", kk: 40, nn: 64, dst: "twobump"},
		{name: "and-1", args: []string{"-rule", "and", "-k", "16", "-n", "1024", "-trials", "5", "-seed", "3", "-dist", "twobump"},
			cfg: cluster.Config{Trials: 5, BaseSeed: 3}, rule: "and", kk: 16, nn: 1024, dst: "twobump"},
		{name: "and-2", args: []string{"-rule", "and", "-k", "16", "-n", "1024", "-trials", "5", "-seed", "8"},
			cfg: cluster.Config{Trials: 5, BaseSeed: 8}, rule: "and", kk: 16, nn: 1024, dst: "uniform"},
		{name: "thr-drop", args: []string{"-k", "40", "-n", "64", "-trials", "6", "-seed", "5", "-dist", "twobump", "-drop", "0.1", "-fault-seed", "7"},
			cfg: cluster.Config{Trials: 6, BaseSeed: 5}, rule: "threshold", kk: 40, nn: 64, dst: "twobump",
			plan: &cluster.FaultPlan{Seed: 7, Drop: 0.1}},
		{name: "thr-drop-batch", args: []string{"-k", "40", "-n", "64", "-trials", "6", "-seed", "5", "-dist", "twobump", "-drop", "0.1", "-dup", "0.1", "-fault-seed", "11", "-batch", "8"},
			cfg: cluster.Config{Trials: 6, BaseSeed: 5, Batch: 8}, rule: "threshold", kk: 40, nn: 64, dst: "twobump",
			plan: &cluster.FaultPlan{Seed: 11, Drop: 0.1, Dup: 0.1}},
		{name: "thr-13", args: []string{"-k", "40", "-n", "64", "-trials", "6", "-seed", "13", "-dist", "twobump"},
			cfg: cluster.Config{Trials: 6, BaseSeed: 13}, rule: "threshold", kk: 40, nn: 64, dst: "twobump"},
		{name: "thr-3", args: []string{"-k", "40", "-n", "64", "-trials", "6", "-seed", "21", "-dist", "twobump", "-batch", "32"},
			cfg: cluster.Config{Trials: 6, BaseSeed: 21, Batch: 32}, rule: "threshold", kk: 40, nn: 64, dst: "twobump"},
	}

	reports := make([]*cluster.Report, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	wg.Add(len(cases))
	for i, c := range cases {
		go func(i int, c tcase) {
			defer wg.Done()
			args := append([]string{"-addr", addr, "-tenant", fmt.Sprint(i + 1)}, c.args...)
			reports[i], errs[i] = submitJSON(t, args)
		}(i, c)
	}
	wg.Wait()

	for i, c := range cases {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.name, errs[i])
		}
		nw, _, err := buildNetwork(c.rule, c.nn, c.kk, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dist.ByName(c.dst, c.nn, 1.0, c.cfg.BaseSeed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cluster.RunPipe(c.cfg, nw, d, c.plan)
		if err != nil {
			t.Fatalf("%s: solo run: %v", c.name, err)
		}
		got, ref := *reports[i], *want
		got.Stats, ref.Stats = cluster.RefereeStats{}, cluster.RefereeStats{}
		got.EarlyTrials, ref.EarlyTrials = 0, 0
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: submitted session diverged from solo run:\n got %+v\nwant %+v", c.name, got, ref)
		}
	}

	// Every session journaled independently.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(cases) {
		t.Errorf("journal dir has %d files, want %d", len(entries), len(cases))
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var ev struct {
				Kind string `json:"kind"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("%s: bad journal line %q: %v", e.Name(), line, err)
			}
			kinds[ev.Kind]++
		}
		if kinds["session_open"] != 1 || kinds["session_end"] != 1 || kinds["cluster_trial"] == 0 {
			t.Errorf("%s: journal kinds = %v", e.Name(), kinds)
		}
	}
}

// TestSubmitRejectedSurfacesReason pins the CLI error path for a quota
// rejection.
func TestSubmitRejectedSurfacesReason(t *testing.T) {
	addr := startServe(t, "-max-k", "4")
	_, err := submitJSON(t, []string{"-addr", addr, "-k", "40", "-n", "64", "-trials", "4"})
	if err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("oversized submit: %v, want a shape rejection", err)
	}
}
