package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type testEvent struct {
	Kind  string `json:"kind"`
	Round int    `json:"round"`
	Bytes int    `json:"bytes,omitempty"`
}

func TestJournalGolden(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Write(testEvent{Kind: "round", Round: 1, Bytes: 64})
	j.Write(testEvent{Kind: "round", Round: 2})
	j.Write(testEvent{Kind: "halt", Round: 2, Bytes: 0})
	const golden = `{"kind":"round","round":1,"bytes":64}
{"kind":"round","round":2}
{"kind":"halt","round":2}
`
	if got := buf.String(); got != golden {
		t.Errorf("journal output:\n%s\nwant:\n%s", got, golden)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalLinesParseIndependently(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	for i := 1; i <= 5; i++ {
		j.Write(testEvent{Kind: "round", Round: i, Bytes: i * 10})
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5", len(lines))
	}
	for i, line := range lines {
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d unparseable: %v", i, err)
		}
		if ev.Round != i+1 {
			t.Errorf("line %d round = %d", i, ev.Round)
		}
	}
}

func TestNilJournal(t *testing.T) {
	var j *Journal
	j.Write(testEvent{Kind: "x"})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalStickyError(t *testing.T) {
	j := NewJournal(&bytes.Buffer{})
	j.Write(func() {}) // unencodable: first error sticks
	if j.Err() == nil {
		t.Fatal("expected encode error")
	}
	j.Write(testEvent{Kind: "after"})
	if j.Err() == nil {
		t.Fatal("sticky error lost")
	}
}

func TestJournalConcurrentWrites(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j.Write(testEvent{Kind: "round", Round: g*50 + i})
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("interleaved line: %q", line)
		}
	}
}

func TestOpenJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Write(testEvent{Kind: "round", Round: 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"round"`) {
		t.Errorf("file contents: %s", data)
	}
}

func TestProvenanceAndDocument(t *testing.T) {
	p := CollectProvenance("unifbench", "quick", 7, []string{"-run", "E1"})
	if p.Tool != "unifbench" || p.Seed != 7 || p.GoVersion == "" || p.GOMAXPROCS < 1 {
		t.Errorf("provenance incomplete: %+v", p)
	}
	// Hostname and PID tell concurrent multi-process cluster runs apart in
	// merged journals; PID must be this process, hostname the OS's answer.
	if p.PID != os.Getpid() {
		t.Errorf("provenance pid = %d, want %d", p.PID, os.Getpid())
	}
	if host, err := os.Hostname(); err == nil && p.Hostname != host {
		t.Errorf("provenance hostname = %q, want %q", p.Hostname, host)
	}
	snap := Snapshot{Counters: map[string]int64{"x": 1}}
	var buf bytes.Buffer
	doc := Document{Provenance: p, Results: map[string]any{"tables": []string{"E1"}}, Metrics: &snap}
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("document not parseable: %v", err)
	}
	for _, key := range []string{"provenance", "results", "metrics"} {
		if _, ok := back[key]; !ok {
			t.Errorf("document missing %q", key)
		}
	}
}
