package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/obs/trace"
)

// spanRec mirrors the tracer's journal record shape.
type spanRec struct {
	Kind   string         `json:"kind"`
	Name   string         `json:"name"`
	Trace  string         `json:"trace"`
	Span   string         `json:"span"`
	Parent string         `json:"parent"`
	Attrs  map[string]any `json:"attrs"`
}

func readSpans(t *testing.T, buf *bytes.Buffer) []spanRec {
	t.Helper()
	var out []spanRec
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		var r spanRec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		if r.Kind == "span" {
			out = append(out, r)
		}
	}
	return out
}

// TestTracingPreservesVerdicts is the tentpole's determinism pin: a fully
// traced session (spans on, every vote frame carrying wire trace context)
// must agree trial-for-trial with the untraced indexed reference RunAt, and
// its journal must contain the complete causal chain
// referee.apply → node.send → node.sample → node.session for every vote.
func TestTracingPreservesVerdicts(t *testing.T) {
	nw := andNetwork(t, 64, 24)
	d := dist.NewUniform(64)
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	reg := obs.NewRegistry()
	cfg := Config{
		Trials:   8,
		BaseSeed: 1234,
		Obs:      reg,
		Trace:    trace.New(j, trace.Derive("session", 1234)),
	}

	// checkDifferential asserts verdicts/rejects/votes match RunAt exactly.
	checkDifferential(t, nw, d, cfg, RunPipe)

	k, trials := nw.K(), cfg.Trials
	spans := readSpans(t, &buf)
	byID := map[string]spanRec{}
	counts := map[string]int{}
	for _, s := range spans {
		byID[s.Span] = s
		counts[s.Name]++
		if s.Trace != cfg.Trace.Trace().String() {
			t.Fatalf("span %s on trace %s, want %s", s.Name, s.Trace, cfg.Trace.Trace())
		}
	}
	if counts["referee.session"] != 1 || counts["referee.verdict"] != 1 {
		t.Fatalf("session/verdict spans = %d/%d, want 1/1", counts["referee.session"], counts["referee.verdict"])
	}
	if counts["node.session"] != k {
		t.Fatalf("node.session spans = %d, want %d", counts["node.session"], k)
	}
	want := k * trials
	if counts["node.sample"] != want || counts["node.send"] != want || counts["referee.apply"] != want {
		t.Fatalf("sample/send/apply spans = %d/%d/%d, want %d each",
			counts["node.sample"], counts["node.send"], counts["referee.apply"], want)
	}

	// Every referee.apply must chain back to a node.session through
	// node.send and node.sample.
	for _, s := range spans {
		if s.Name != "referee.apply" {
			continue
		}
		send, ok := byID[s.Parent]
		if !ok || send.Name != "node.send" {
			t.Fatalf("referee.apply parent %q is %q, want a node.send span", s.Parent, send.Name)
		}
		sample, ok := byID[send.Parent]
		if !ok || sample.Name != "node.sample" {
			t.Fatalf("node.send parent %q is %q, want a node.sample span", send.Parent, sample.Name)
		}
		sess, ok := byID[sample.Parent]
		if !ok || sess.Name != "node.session" {
			t.Fatalf("node.sample parent %q is %q, want a node.session span", sample.Parent, sess.Name)
		}
		// The apply and sample spans must agree on the trial coordinate.
		if s.Attrs["trial"] != sample.Attrs["trial"] {
			t.Fatalf("apply trial %v routed to sample trial %v", s.Attrs["trial"], sample.Attrs["trial"])
		}
	}
	// The verdict span parents on the referee session.
	for _, s := range spans {
		if s.Name == "referee.verdict" {
			if p := byID[s.Parent]; p.Name != "referee.session" {
				t.Fatalf("referee.verdict parent is %q", p.Name)
			}
		}
	}

	// Sample spans carry deterministic IDs: re-derive one independently.
	wantID := trace.Derive("node.sample", uint64(cfg.Trace.Trace()), 0, 0).String()
	if _, ok := byID[wantID]; !ok {
		t.Fatalf("derived sample span %s not in journal", wantID)
	}

	// Metrics: traced frames flow through the instrumented hot path.
	snap := reg.Snapshot()
	if got := snap.Counters["cluster.votes"]; got != int64(want) {
		t.Fatalf("cluster.votes = %d, want %d", got, want)
	}
	if h := snap.Histograms["cluster.apply_ns.vote"]; h.Count != int64(want) {
		t.Fatalf("apply_ns.vote count = %d, want %d", h.Count, want)
	}
	if h := snap.Histograms["cluster.decode_ns.vote"]; h.Count != int64(want) {
		t.Fatalf("decode_ns.vote count = %d, want %d", h.Count, want)
	}
	if got := snap.Counters["cluster.peer.0.recv"]; got != int64(trials)+2 {
		// Hello + trials votes + Done.
		t.Fatalf("peer 0 recv = %d, want %d", got, trials+2)
	}
	if got := snap.Counters["cluster.peer.0.sent"]; got != int64(trials)+2 {
		t.Fatalf("peer 0 sent = %d, want %d", got, trials+2)
	}
	if occ := snap.Gauges["cluster.dedup_occupancy"]; occ != 1 {
		t.Fatalf("dedup occupancy = %g, want 1 after a fault-free run", occ)
	}
	if open := snap.Gauges["cluster.sessions_open"]; open != 0 {
		t.Fatalf("sessions_open = %g after the session closed", open)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTracingFaults exercises the traced path through a drop plan:
// verdicts must match an identically-seeded untraced run exactly (tracing
// must not consume fault randomness), with per-peer drop counters live
// and one apply latency sample and one apply span per vote that arrived.
func TestTracingFaults(t *testing.T) {
	nw := thresholdNetwork(t, 256, 16)
	d := dist.NewUniform(256)
	plan := &FaultPlan{Seed: 99, Drop: 0.2}
	base := Config{Trials: 12, BaseSeed: 777}

	plain, err := RunPipe(base, nw, d, plan)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	reg := obs.NewRegistry()
	traced := base
	traced.Obs = reg
	traced.Trace = trace.New(obs.NewJournal(&buf), trace.Derive("session", 777))
	got, err := RunPipe(traced, nw, d, plan)
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Verdicts) != len(plain.Verdicts) {
		t.Fatalf("trials %d vs %d", len(got.Verdicts), len(plain.Verdicts))
	}
	for i := range got.Verdicts {
		if got.Verdicts[i] != plain.Verdicts[i] || got.Rejects[i] != plain.Rejects[i] || got.Votes[i] != plain.Votes[i] {
			t.Fatalf("trial %d diverged under tracing: verdict %v/%v rejects %d/%d votes %d/%d",
				i, got.Verdicts[i], plain.Verdicts[i], got.Rejects[i], plain.Rejects[i], got.Votes[i], plain.Votes[i])
		}
	}
	if got.MissingVotes != plain.MissingVotes {
		t.Fatalf("missing votes %d vs %d", got.MissingVotes, plain.MissingVotes)
	}

	snap := reg.Snapshot()
	var droppedPeers int64
	for i := 0; i < nw.K(); i++ {
		droppedPeers += snap.Counters[peerCounterName(i, "dropped")]
	}
	if droppedPeers != snap.Counters["cluster.faults_dropped"] {
		t.Fatalf("per-peer dropped %d != total dropped %d", droppedPeers, snap.Counters["cluster.faults_dropped"])
	}
	if droppedPeers == 0 {
		t.Fatal("drop plan dropped nothing; test is vacuous")
	}
	if h := snap.Histograms["cluster.apply_ns.vote"]; h.Count != int64(got.Stats.Votes) {
		t.Fatalf("vote apply latency samples = %d, recorded votes = %d", h.Count, got.Stats.Votes)
	}
	// Spans only for votes that actually arrived.
	applies := 0
	for _, s := range readSpans(t, &buf) {
		if s.Name == "referee.apply" {
			applies++
		}
	}
	if applies != got.Stats.Votes {
		t.Fatalf("referee.apply spans = %d, recorded votes = %d", applies, got.Stats.Votes)
	}
}

// TestTracingBatchedSpanChain pins the batched span graph: every
// node.sendbatch span parents on its node's node.session span, every
// referee.applybatch on a node.sendbatch, and every per-vote
// referee.apply on a referee.applybatch.
func TestTracingBatchedSpanChain(t *testing.T) {
	nw := andNetwork(t, 64, 24)
	d := dist.NewUniform(64)
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	cfg := Config{Trials: 8, BaseSeed: 1234, Batch: 4, Trace: trace.New(j, trace.Derive("session", 1234))}
	checkDifferential(t, nw, d, cfg, RunPipe)
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}

	k := nw.K()
	spans := readSpans(t, &buf)
	byID := map[string]spanRec{}
	counts := map[string]int{}
	for _, s := range spans {
		byID[s.Span] = s
		counts[s.Name]++
	}
	batches := k * cfg.Trials / cfg.Batch
	if counts["node.sendbatch"] != batches || counts["referee.applybatch"] != batches || counts["referee.apply"] != k*cfg.Trials {
		t.Fatalf("sendbatch/applybatch/apply spans = %d/%d/%d, want %d/%d/%d",
			counts["node.sendbatch"], counts["referee.applybatch"], counts["referee.apply"], batches, batches, k*cfg.Trials)
	}
	wantParent := map[string]string{
		"node.sendbatch":     "node.session",
		"referee.applybatch": "node.sendbatch",
		"referee.apply":      "referee.applybatch",
	}
	for _, s := range spans {
		want, ok := wantParent[s.Name]
		if !ok {
			continue
		}
		if p := byID[s.Parent]; p.Name != want {
			t.Fatalf("%s parent %q is %q, want a %s span", s.Name, s.Parent, p.Name, want)
		}
	}
	// A batch's session is the session of the node that sent it.
	for _, s := range spans {
		if s.Name != "referee.applybatch" {
			continue
		}
		sess := byID[byID[s.Parent].Parent]
		if sess.Attrs["node"] != s.Attrs["node"] {
			t.Fatalf("batch from node %v chains to the session of node %v", s.Attrs["node"], sess.Attrs["node"])
		}
	}
}

// TestPeerSentMatchesRecv checks the per-peer frame accounting on both
// submission shapes: on a clean run, every node's cluster.peer.<id>.sent
// (each frame it wrote, Hello and Done included) equals the referee's
// cluster.peer.<id>.recv.
func TestPeerSentMatchesRecv(t *testing.T) {
	nw := thresholdNetwork(t, 64, 16)
	d := dist.NewTwoBump(64, 1.0, 5)
	for _, batch := range []int{0, 4} {
		reg := obs.NewRegistry()
		cfg := Config{Trials: 8, BaseSeed: 21, Batch: batch, Obs: reg}
		if _, err := RunPipe(cfg, nw, d, nil); err != nil {
			t.Fatal(err)
		}
		want := int64(cfg.Trials + 2)
		if batch > 0 {
			want = int64(cfg.Trials/batch + 2)
		}
		snap := reg.Snapshot()
		for i := 0; i < nw.K(); i++ {
			sent, recv := snap.Counters[peerCounterName(i, "sent")], snap.Counters[peerCounterName(i, "recv")]
			if sent != recv || sent != want {
				t.Fatalf("batch=%d: node %d sent %d frames, referee received %d, want %d",
					batch, i, sent, recv, want)
			}
		}
	}
}

func peerCounterName(node int, kind string) string {
	return "cluster.peer." + itoa(node) + "." + kind
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestTracingAddsOnlyContextBytes pins the byte accounting of the one
// frame layout end to end: an untraced unbound session moves exactly the
// session-0 frame sizes, and a traced run adds exactly the 16-byte trace
// context to each vote frame and changes no verdict.
func TestTracingAddsOnlyContextBytes(t *testing.T) {
	nw := andNetwork(t, 64, 8)
	d := dist.NewUniform(64)
	cfg := Config{Trials: 4, BaseSeed: 5}
	rep, err := RunPipe(cfg, nw, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Per node: Hello(22) + 4 votes(19 each) + Done(14) = 112 bytes.
	wantPerNode := int64(22 + 4*19 + 14)
	if rep.Stats.Bytes != wantPerNode*int64(nw.K()) {
		t.Fatalf("untraced session moved %d bytes, want %d", rep.Stats.Bytes, wantPerNode*int64(nw.K()))
	}
	// A traced run grows every vote frame by exactly the 16-byte context.
	tcfg := cfg
	tcfg.Trace = trace.New(obs.NewJournal(&bytes.Buffer{}), 9)
	trep, err := RunPipe(tcfg, nw, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantTraced := (wantPerNode + 4*16) * int64(nw.K())
	if trep.Stats.Bytes != wantTraced {
		t.Fatalf("traced session moved %d bytes, want %d", trep.Stats.Bytes, wantTraced)
	}
	for i := range rep.Verdicts {
		if rep.Verdicts[i] != trep.Verdicts[i] {
			t.Fatalf("trial %d verdict diverged under tracing", i)
		}
	}
}
