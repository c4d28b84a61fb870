package simnet_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/simnet"
)

func TestSummaryTracerCollects(t *testing.T) {
	g := graph.NewLine(2)
	a := &pingPong{starter: true}
	b := &pingPong{}
	tracer := &simnet.SummaryTracer{}
	stats, err := simnet.Run(g, []simnet.Node{a, b}, simnet.Config{Seed: 1, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	rounds := tracer.Rounds()
	if len(rounds) == 0 {
		t.Fatal("tracer collected nothing")
	}
	totalMsgs, totalHalts, totalBytes := 0, 0, 0
	for _, r := range rounds {
		totalMsgs += r.Messages
		totalHalts += r.Halted
		totalBytes += r.Bytes
	}
	if totalMsgs != stats.Messages {
		t.Errorf("tracer saw %d messages, stats %d", totalMsgs, stats.Messages)
	}
	if int64(totalBytes) != stats.Bytes {
		t.Errorf("tracer saw %d bytes, stats %d", totalBytes, stats.Bytes)
	}
	if totalHalts != g.N() {
		t.Errorf("tracer saw %d halts, want %d", totalHalts, g.N())
	}
	if rounds[0].Active != 2 {
		t.Errorf("round 1 active = %d, want 2", rounds[0].Active)
	}
}

func TestSummaryTracerDump(t *testing.T) {
	g := graph.NewRing(6)
	nodes := make([]simnet.Node, 6)
	for i := range nodes {
		nodes[i] = &floodMax{limit: 4}
	}
	tracer := &simnet.SummaryTracer{}
	if _, err := simnet.Run(g, nodes, simnet.Config{Seed: 2, Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracer.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "round") || !strings.Contains(out, "msgs") {
		t.Fatalf("dump missing header: %s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 2 {
		t.Fatalf("dump has no data rows: %s", out)
	}
}

func TestTracerRoundsReturnsCopy(t *testing.T) {
	tracer := &simnet.SummaryTracer{}
	tracer.OnRoundStart(1, 5)
	tracer.OnMessage(1, 0, 1, []byte{1, 2})
	rounds := tracer.Rounds()
	rounds[0].Messages = 999
	if tracer.Rounds()[0].Messages == 999 {
		t.Fatal("Rounds exposed internal state")
	}
}

func TestNilTracerIsFine(t *testing.T) {
	g := graph.NewLine(2)
	if _, err := simnet.Run(g, []simnet.Node{silent{}, silent{}}, simnet.Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryTracerUnseenRoundIsImplicit(t *testing.T) {
	tracer := &simnet.SummaryTracer{}
	// OnMessage/OnHalt with no prior OnRoundStart must create an explicit
	// Implicit summary, not miscount under a bogus row.
	tracer.OnMessage(3, 0, 1, []byte{1, 2, 3})
	tracer.OnHalt(3, 0)
	rounds := tracer.Rounds()
	if len(rounds) != 1 {
		t.Fatalf("got %d summaries, want 1", len(rounds))
	}
	r := rounds[0]
	if r.Round != 3 || !r.Implicit || r.Messages != 1 || r.Bytes != 3 || r.Halted != 1 || r.Active != 0 {
		t.Errorf("implicit summary = %+v", r)
	}
	// A late OnRoundStart for the same round upgrades it in place.
	tracer.OnRoundStart(3, 7)
	rounds = tracer.Rounds()
	if len(rounds) != 1 || rounds[0].Implicit || rounds[0].Active != 7 || rounds[0].Messages != 1 {
		t.Errorf("upgraded summary = %+v", rounds[0])
	}
}

func TestSummaryTracerOutOfOrderEvents(t *testing.T) {
	tracer := &simnet.SummaryTracer{}
	tracer.OnRoundStart(1, 4)
	tracer.OnRoundStart(2, 4)
	// Event for round 1 arriving after round 2 started must update round 1,
	// not append a duplicate row.
	tracer.OnMessage(1, 0, 1, []byte{9})
	tracer.OnHalt(1, 0)
	rounds := tracer.Rounds()
	if len(rounds) != 2 {
		t.Fatalf("got %d summaries, want 2", len(rounds))
	}
	if rounds[0].Round != 1 || rounds[0].Messages != 1 || rounds[0].Halted != 1 || rounds[0].Active != 4 {
		t.Errorf("round 1 summary = %+v", rounds[0])
	}
	if rounds[1].Messages != 0 {
		t.Errorf("round 2 absorbed round 1 traffic: %+v", rounds[1])
	}
}

func TestMetricsTracerRecords(t *testing.T) {
	g := graph.NewLine(2)
	reg := obs.NewRegistry()
	tracer := simnet.NewMetricsTracer(reg, 16)
	stats, err := simnet.Run(g, []simnet.Node{&pingPong{starter: true}, &pingPong{}}, simnet.Config{
		Seed: 1, Tracer: tracer, MaxBytesPerMessage: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters["simnet.messages"]; got != int64(stats.Messages) {
		t.Errorf("simnet.messages = %d, stats %d", got, stats.Messages)
	}
	if got := s.Counters["simnet.bytes"]; got != stats.Bytes {
		t.Errorf("simnet.bytes = %d, stats %d", got, stats.Bytes)
	}
	if got := s.Counters["simnet.rounds"]; got != int64(stats.Rounds) {
		t.Errorf("simnet.rounds = %d, stats %d", got, stats.Rounds)
	}
	if got := s.Counters["simnet.halts"]; got != 2 {
		t.Errorf("simnet.halts = %d, want 2", got)
	}
	h := s.Histograms["simnet.msg_bytes"]
	if h.Count != int64(stats.Messages) {
		t.Errorf("msg_bytes histogram count = %d, want %d", h.Count, stats.Messages)
	}
	if nm := s.Histograms["simnet.node_msgs"]; nm.Count == 0 {
		t.Error("node_msgs histogram empty after OnRunEnd")
	}
	if util := s.Gauges["simnet.bandwidth_util"]; util <= 0 || util > 1 {
		t.Errorf("bandwidth_util = %g, want (0, 1]", util)
	}
}

func TestJSONLTracerEvents(t *testing.T) {
	g := graph.NewRing(6)
	nodes := make([]simnet.Node, 6)
	for i := range nodes {
		nodes[i] = &floodMax{limit: 4}
	}
	var buf bytes.Buffer
	journal := obs.NewJournal(&buf)
	stats, err := simnet.Run(g, nodes, simnet.Config{Seed: 2, Tracer: simnet.NewJSONLTracer(journal, "test", 16)})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("journal too short: %q", buf.String())
	}
	var msgs int
	var sawEnd bool
	for _, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("unparseable journal line %q: %v", line, err)
		}
		switch ev["kind"] {
		case "sim_round":
			if ev["run"] != "test" {
				t.Errorf("round event run = %v", ev["run"])
			}
			msgs += int(ev["msgs"].(float64))
		case "sim_run_end":
			sawEnd = true
			if int(ev["rounds"].(float64)) != stats.Rounds {
				t.Errorf("run_end rounds = %v, want %d", ev["rounds"], stats.Rounds)
			}
		default:
			t.Errorf("unexpected event kind %v", ev["kind"])
		}
	}
	if msgs != stats.Messages {
		t.Errorf("journal rounds account for %d messages, stats %d", msgs, stats.Messages)
	}
	if !sawEnd {
		t.Error("no sim_run_end event")
	}
}

func TestMultiTracer(t *testing.T) {
	summary := &simnet.SummaryTracer{}
	reg := obs.NewRegistry()
	metrics := simnet.NewMetricsTracer(reg, 0)
	combined := simnet.MultiTracer(nil, summary, metrics)
	if combined == nil {
		t.Fatal("MultiTracer dropped live tracers")
	}
	g := graph.NewLine(2)
	stats, err := simnet.Run(g, []simnet.Node{&pingPong{starter: true}, &pingPong{}}, simnet.Config{Seed: 3, Tracer: combined})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range summary.Rounds() {
		total += r.Messages
	}
	if total != stats.Messages {
		t.Errorf("summary saw %d messages, stats %d", total, stats.Messages)
	}
	if got := reg.Counter("simnet.messages").Value(); got != int64(stats.Messages) {
		t.Errorf("metrics saw %d messages, stats %d", got, stats.Messages)
	}
	if simnet.MultiTracer(nil, nil) != nil {
		t.Error("MultiTracer of nils not nil")
	}
	if simnet.MultiTracer(summary) != simnet.Tracer(summary) {
		t.Error("single-tracer MultiTracer not pass-through")
	}
}
