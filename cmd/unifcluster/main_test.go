package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRunPipeSmoke(t *testing.T) {
	if err := run([]string{"-k", "30", "-n", "64", "-trials", "4", "-seed", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunANDSmoke(t *testing.T) {
	if err := run([]string{"-rule", "and", "-k", "16", "-n", "1024", "-trials", "4", "-dist", "twobump"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunTCPSmoke(t *testing.T) {
	if err := run([]string{"-transport", "tcp", "-k", "20", "-n", "64", "-trials", "4"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSONDocument(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "run.jsonl")
	var buf bytes.Buffer
	args := []string{"-k", "40", "-n", "64", "-trials", "6", "-seed", "7",
		"-dist", "twobump", "-drop", "0.1", "-json", "-journal", journalPath}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Provenance struct {
			Tool     string `json:"tool"`
			Mode     string `json:"mode"`
			Seed     uint64 `json:"seed"`
			Hostname string `json:"hostname"`
			PID      int    `json:"pid"`
		} `json:"provenance"`
		Results struct {
			Rule   string `json:"rule"`
			Policy string `json:"policy"`
			Report struct {
				K            int    `json:"k"`
				Trials       int    `json:"trials"`
				Verdicts     []bool `json:"verdicts"`
				MissingVotes int    `json:"missing_votes"`
				Stats        struct {
					Votes int `json:"votes"`
				} `json:"stats"`
			} `json:"report"`
			Faults *struct {
				Drop float64 `json:"Drop"`
			} `json:"faults"`
		} `json:"results"`
		Metrics *struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("document not parseable: %v\n%s", err, buf.String())
	}
	if doc.Provenance.Tool != "unifcluster" || doc.Provenance.Mode != "pipe" || doc.Provenance.Seed != 7 {
		t.Errorf("provenance = %+v", doc.Provenance)
	}
	if doc.Provenance.Hostname == "" || doc.Provenance.PID <= 0 {
		t.Errorf("provenance missing host identity: hostname=%q pid=%d", doc.Provenance.Hostname, doc.Provenance.PID)
	}
	if doc.Results.Rule == "" || doc.Results.Policy != "observed" {
		t.Errorf("results = %+v", doc.Results)
	}
	rep := doc.Results.Report
	if rep.K != 40 || rep.Trials != 6 || len(rep.Verdicts) != 6 {
		t.Errorf("report = %+v", rep)
	}
	// The drop plan must lose votes, and the document must account for them.
	if rep.MissingVotes == 0 {
		t.Error("drop plan lost no votes")
	}
	if doc.Results.Faults == nil || doc.Results.Faults.Drop != 0.1 {
		t.Errorf("faults = %+v", doc.Results.Faults)
	}
	if doc.Metrics == nil {
		t.Fatal("metrics snapshot missing")
	}
	if doc.Metrics.Counters["cluster.votes"] == 0 || doc.Metrics.Counters["cluster.votes_missing"] == 0 {
		t.Errorf("cluster counters = %v", doc.Metrics.Counters)
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
	if kinds["run_start"] != 1 || kinds["run_end"] != 1 || kinds["cluster_trial"] != 6 {
		t.Errorf("journal kinds = %v", kinds)
	}
}

func TestRunCleanJSONHasNoMissingVotes(t *testing.T) {
	// The CI loopback smoke relies on this shape: a fault-free fixed-seed
	// run reports zero missing votes and a full verdict vector.
	var buf bytes.Buffer
	if err := run([]string{"-k", "30", "-n", "64", "-trials", "5", "-seed", "3", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results struct {
			Report struct {
				Trials       int    `json:"trials"`
				Verdicts     []bool `json:"verdicts"`
				MissingVotes int    `json:"missing_votes"`
			} `json:"report"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Results.Report.MissingVotes != 0 {
		t.Errorf("clean run lost %d votes", doc.Results.Report.MissingVotes)
	}
	if len(doc.Results.Report.Verdicts) != 5 {
		t.Errorf("verdicts = %v", doc.Results.Report.Verdicts)
	}
}

// TestQuorumStrictFailsOnMissingVotes pins the strict policy: a lossy run
// fails, naming the votes it lost, while the observed policy accepts the
// same run.
func TestQuorumStrictFailsOnMissingVotes(t *testing.T) {
	args := []string{"-k", "60", "-n", "64", "-trials", "6", "-seed", "2", "-drop", "0.15", "-fault-seed", "7"}
	err := run(append([]string{"-policy", "strict"}, args...), io.Discard)
	if err == nil || err.Error() != "cluster: strict quorum: 46 votes missing across 5 trials" {
		t.Fatalf("strict run: err = %v, want the strict-quorum failure", err)
	}
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("observed run: %v", err)
	}
}

// TestJournalCompleteOnStrictQuorumError pins the journal-flush ordering:
// a strict-quorum failure surfaces an error from run(), but the referee
// still delivered a fully decided report, and every trial line plus a
// run_end record carrying the error must reach the journal before run()
// returns. (Before the fix, the early error return truncated the journal
// right after run_start.)
func TestJournalCompleteOnStrictQuorumError(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "strict.jsonl")
	args := []string{"-k", "60", "-n", "64", "-trials", "6", "-seed", "2",
		"-policy", "strict", "-drop", "0.15", "-fault-seed", "7", "-journal", journalPath}
	err := run(args, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "strict quorum") {
		t.Fatalf("err = %v, want a strict-quorum failure", err)
	}

	data, rerr := os.ReadFile(journalPath)
	if rerr != nil {
		t.Fatal(rerr)
	}
	kinds := map[string]int{}
	var endErr string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev struct {
			Kind  string `json:"kind"`
			Error string `json:"error"`
		}
		if uerr := json.Unmarshal([]byte(line), &ev); uerr != nil {
			t.Fatalf("bad journal line %q: %v", line, uerr)
		}
		kinds[ev.Kind]++
		if ev.Kind == "run_end" {
			endErr = ev.Error
		}
	}
	if kinds["run_start"] != 1 || kinds["cluster_trial"] != 6 || kinds["run_end"] != 1 {
		t.Errorf("journal kinds = %v, want 1 run_start, 6 cluster_trial, 1 run_end", kinds)
	}
	if !strings.Contains(endErr, "strict quorum") {
		t.Errorf("run_end error = %q, want the strict-quorum failure recorded", endErr)
	}
}

// TestJournalHasLinkedSpans asserts a journaled run records the full causal
// span chain for at least one complete trial:
// referee.apply → node.send → node.sample → node.session, plus the
// referee.verdict span parented on the referee session.
func TestJournalHasLinkedSpans(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "spans.jsonl")
	args := []string{"-k", "20", "-n", "64", "-trials", "3", "-seed", "9", "-journal", journalPath}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	type span struct {
		Name   string         `json:"name"`
		Span   string         `json:"span"`
		Parent string         `json:"parent"`
		Attrs  map[string]any `json:"attrs"`
	}
	byID := map[string]span{}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev struct {
			Kind string `json:"kind"`
			span
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		if ev.Kind != "span" {
			continue
		}
		byID[ev.Span] = ev.span
		counts[ev.Name]++
	}
	const k, trials = 20, 3
	if counts["referee.apply"] != k*trials {
		t.Fatalf("referee.apply spans = %d, want %d", counts["referee.apply"], k*trials)
	}
	if counts["referee.verdict"] != 1 || counts["referee.session"] != 1 {
		t.Fatalf("verdict/session spans = %d/%d, want 1/1", counts["referee.verdict"], counts["referee.session"])
	}
	// Walk every apply back to its node session: the chain must be intact
	// for all k*trials votes, which covers every full trial.
	for id, s := range byID {
		if s.Name != "referee.apply" {
			continue
		}
		send, ok := byID[s.Parent]
		if !ok || send.Name != "node.send" {
			t.Fatalf("apply span %s parent %q is %q, want node.send", id, s.Parent, send.Name)
		}
		sample, ok := byID[send.Parent]
		if !ok || sample.Name != "node.sample" {
			t.Fatalf("send span parent %q is %q, want node.sample", send.Parent, sample.Name)
		}
		if sess, ok := byID[sample.Parent]; !ok || sess.Name != "node.session" {
			t.Fatalf("sample span parent %q is %q, want node.session", sample.Parent, sess.Name)
		}
	}
	for _, s := range byID {
		if s.Name == "referee.verdict" {
			if p := byID[s.Parent]; p.Name != "referee.session" {
				t.Fatalf("referee.verdict parent is %q, want referee.session", p.Name)
			}
		}
	}
}

// metricValue extracts a gauge/counter sample with exactly the given name
// from a Prometheus text exposition, returning ok=false if absent.
func metricValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// TestObsServerLiveScrape is the telemetry-plane smoke: a TCP-loopback run
// with -obs-addr is scraped mid-flight — /metrics must show live vote
// counts and a nonzero votes/sec rate gauge, /runz and /healthz must
// answer — and the run document's report must be byte-identical to an
// identically-configured run without the obs server.
func TestObsServerLiveScrape(t *testing.T) {
	addrCh := make(chan string, 1)
	obsReady = func(addr string) { addrCh <- addr }
	defer func() { obsReady = func(string) {} }()

	// The delay plan stretches the run (seeded, delay-only — verdicts are
	// unaffected) so the scrape loop reliably lands mid-run.
	common := []string{"-transport", "tcp", "-k", "20", "-n", "64", "-trials", "10",
		"-seed", "5", "-delay", "40ms", "-json"}

	var obsOut bytes.Buffer
	runDone := make(chan error, 1)
	go func() {
		runDone <- run(append([]string{"-obs-addr", "127.0.0.1:0"}, common...), &obsOut)
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-runDone:
		t.Fatalf("run finished before the obs server came up: %v", err)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	// Poll /metrics until votes flow; the delayed run gives us a wide
	// mid-run window.
	deadline := time.Now().Add(15 * time.Second)
	var votes, rate float64
	for {
		_, body := get("/metrics")
		v, _ := metricValue(body, "cluster_votes")
		r, _ := metricValue(body, "cluster_votes_per_sec")
		if v > 0 && r > 0 {
			votes, rate = v, r
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no live votes after 15s; last body:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if votes <= 0 || rate <= 0 {
		t.Fatalf("votes=%g rate=%g, want both > 0", votes, rate)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body := get("/runz")
	if code != http.StatusOK {
		t.Fatalf("/runz = %d", code)
	}
	var runz map[string]any
	if err := json.Unmarshal([]byte(body), &runz); err != nil {
		t.Fatalf("/runz not JSON: %v\n%s", err, body)
	}
	if _, ok := runz["provenance"]; !ok {
		t.Fatalf("/runz missing provenance: %v", runz)
	}

	if err := <-runDone; err != nil {
		t.Fatal(err)
	}

	// The same configuration without the obs server must produce a
	// byte-identical report, stats included: telemetry export never
	// touches verdicts. Only early_trials is dropped, as reportSansStats
	// drops it: it records at which arriving vote each trial was fixed,
	// which varies with scheduling even between identical runs.
	var plainOut bytes.Buffer
	if err := run(common, &plainOut); err != nil {
		t.Fatal(err)
	}
	report := func(raw []byte) []byte {
		var doc struct {
			Results struct {
				Report map[string]json.RawMessage `json:"report"`
			} `json:"results"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("run document not parseable: %v", err)
		}
		if len(doc.Results.Report) == 0 {
			t.Fatal("run document has no report")
		}
		if _, ok := doc.Results.Report["stats"]; !ok {
			t.Fatal("run report has no stats")
		}
		delete(doc.Results.Report, "early_trials")
		out, err := json.Marshal(doc.Results.Report)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if obsRep, plainRep := report(obsOut.Bytes()), report(plainOut.Bytes()); !bytes.Equal(obsRep, plainRep) {
		t.Fatalf("obs run report diverged from plain run:\nobs:   %s\nplain: %s", obsRep, plainRep)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // a regular expression the error must match
	}{
		{name: "bad rule", args: []string{"-rule", "bogus"}, want: "unknown rule"},
		{name: "bad dist", args: []string{"-dist", "bogus"}, want: "unknown distribution"},
		{name: "bad transport", args: []string{"-transport", "bogus"}, want: "unknown transport"},
		{name: "bad policy", args: []string{"-policy", "bogus"}, want: "unknown policy"},
		// -sketch is retired in run and submit mode: it fails under any rule.
		{name: "sketch under and", args: []string{"-rule", "and", "-sketch", "-k", "16", "-n", "1024"}, want: "not defined: -sketch"},
		{name: "retired submit -sketch", args: []string{"submit", "-sketch"}, want: "not defined: -sketch"},
		{name: "retired serve -workers", args: []string{"serve", "-workers", "4"}, want: "not defined: -workers"},
		{name: "retired serve -quantum", args: []string{"serve", "-quantum", "32"}, want: "not defined: -quantum"},
		{name: "retired serve -queue", args: []string{"serve", "-queue", "64"}, want: "not defined: -queue"},
		{name: "retired -queue", args: []string{"-queue", "16"}, want: "not defined: -queue"},
		{name: "retired serve -reap", args: []string{"serve", "-reap", "250ms"}, want: "not defined: -reap"},
		// Early close and the byte flush watermark are retired: a session
		// ends when every node is done, a batch flushes when full.
		{name: "retired -early", args: []string{"-rule", "and", "-early"}, want: "^flag provided but not defined: -early$"},
		{name: "retired -flush-bytes", args: []string{"-batch", "16", "-flush-bytes", "4096"}, want: "^flag provided but not defined: -flush-bytes$"},
		{name: "retired submit -early", args: []string{"submit", "-early"}, want: "^flag provided but not defined: -early$"},
		// Every node fails; the run reports the lowest node's error exactly
		// as the node client wrote it.
		{name: "node error", args: []string{"-k", "8", "-n", "64", "-trials", "2", "-disconnect", "1", "-deadline", "300ms"},
			want: "^cluster: node 0: vote: link disconnected by fault plan$"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if err == nil || !regexp.MustCompile(tc.want).MatchString(err.Error()) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// reportSansStats extracts the report from a -json run document and
// strips the transport stats, which legitimately differ between batched
// and unbatched executions. Everything else must match byte for byte.
func reportSansStats(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc struct {
		Results struct {
			Report map[string]json.RawMessage `json:"report"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("run document not parseable: %v", err)
	}
	if len(doc.Results.Report) == 0 {
		t.Fatal("run document has no report")
	}
	delete(doc.Results.Report, "stats")
	// early_trials records at which arriving vote each trial was fixed —
	// scheduling bookkeeping that varies even between identical runs.
	delete(doc.Results.Report, "early_trials")
	out, err := json.Marshal(doc.Results.Report)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchedMatchesUnbatchedTCP is the CI loopback smoke for the
// high-throughput transport: 2000 nodes × 5 trials = 10^4 votes over real
// TCP sockets, batched versus per-frame. The decision-relevant
// report must be byte-identical, and the batched run must clear a
// conservative throughput floor (it typically runs orders of magnitude
// faster; the floor only catches pathological regressions, race-detector
// builds included).
func TestBatchedMatchesUnbatchedTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP batching smoke skipped in -short mode")
	}
	const votes = 2000 * 5
	base := []string{"-transport", "tcp", "-k", "2000", "-n", "1024", "-trials", "5", "-seed", "11", "-json"}
	var plain, batched bytes.Buffer
	if err := run(base, &plain); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := run(append(base, "-batch", "256"), &batched); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if got, want := reportSansStats(t, batched.Bytes()), reportSansStats(t, plain.Bytes()); !bytes.Equal(got, want) {
		t.Fatalf("batched report diverged from unbatched:\nbatched:   %s\nunbatched: %s", got, want)
	}
	var doc struct {
		Provenance struct {
			Extra map[string]string `json:"extra"`
		} `json:"provenance"`
		Results struct {
			Report struct {
				Stats struct {
					Votes       int `json:"votes"`
					BatchFrames int `json:"batch_frames"`
				} `json:"stats"`
			} `json:"report"`
		} `json:"results"`
	}
	if err := json.Unmarshal(batched.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Results.Report.Stats.Votes != votes || doc.Results.Report.Stats.BatchFrames == 0 {
		t.Fatalf("batched run recorded %d votes in %d batch frames",
			doc.Results.Report.Stats.Votes, doc.Results.Report.Stats.BatchFrames)
	}
	if doc.Provenance.Extra["batch"] != "256" {
		t.Fatalf("provenance did not record the transport shape: %v", doc.Provenance.Extra)
	}
	if rate := float64(votes) / elapsed.Seconds(); rate < 5_000 {
		t.Fatalf("batched TCP throughput %.0f votes/sec below the 5k floor", rate)
	}
}

// TestAggTreeMatchesFlatStarTCP is the CI loopback smoke for sharded
// aggregation: a 2-level TCP aggregator tree over 2000 nodes × 5 trials
// against the flat star. The decision-relevant report must be
// byte-identical — partial sums compose the same monoid the flat referee
// folds vote by vote — and the tree run must clear the same conservative
// throughput floor as the batching smoke.
func TestAggTreeMatchesFlatStarTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP aggregation smoke skipped in -short mode")
	}
	const votes = 2000 * 5
	base := []string{"-transport", "tcp", "-k", "2000", "-n", "1024", "-trials", "5", "-seed", "11", "-json"}
	var flat, tree bytes.Buffer
	if err := run(base, &flat); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := run(append(base, "-agg", "8", "-agg-depth", "2"), &tree); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if got, want := reportSansStats(t, tree.Bytes()), reportSansStats(t, flat.Bytes()); !bytes.Equal(got, want) {
		t.Fatalf("tree report diverged from flat star:\ntree: %s\nflat: %s", got, want)
	}
	var doc struct {
		Provenance struct {
			Extra map[string]string `json:"extra"`
		} `json:"provenance"`
		Results struct {
			Report struct {
				Stats struct {
					Votes         int `json:"votes"`
					PartialFrames int `json:"partial_frames"`
					PartialVotes  int `json:"partial_votes"`
				} `json:"stats"`
			} `json:"report"`
		} `json:"results"`
	}
	if err := json.Unmarshal(tree.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Results.Report.Stats.Votes != votes || doc.Results.Report.Stats.PartialFrames == 0 ||
		doc.Results.Report.Stats.PartialVotes != votes {
		t.Fatalf("tree run folded %d votes (%d via %d partial frames), want all %d via partials",
			doc.Results.Report.Stats.Votes, doc.Results.Report.Stats.PartialVotes,
			doc.Results.Report.Stats.PartialFrames, votes)
	}
	if doc.Provenance.Extra["agg_fanout"] != "8" || doc.Provenance.Extra["agg_depth"] != "2" {
		t.Fatalf("provenance did not record the topology: %v", doc.Provenance.Extra)
	}
	if rate := float64(votes) / elapsed.Seconds(); rate < 5_000 {
		t.Fatalf("aggregated TCP throughput %.0f votes/sec below the 5k floor", rate)
	}
}
