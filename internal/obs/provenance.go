package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// Provenance records where a run document came from: enough to regenerate
// the numbers (tool, mode, seed) and to explain them later (toolchain,
// host parallelism, VCS revision, timings).
type Provenance struct {
	Tool       string   `json:"tool"`
	Args       []string `json:"args,omitempty"`
	Mode       string   `json:"mode,omitempty"`
	Seed       uint64   `json:"seed"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	// Hostname and PID identify the emitting process — the keys that tell
	// multi-process cluster runs' journals apart when they are merged.
	Hostname string `json:"hostname,omitempty"`
	PID      int    `json:"pid"`
	// Workers is the requested worker-pool bound (0 = GOMAXPROCS); results
	// are worker-count-invariant, so this explains timings, not numbers.
	Workers  int    `json:"workers,omitempty"`
	GitRev   string `json:"git_rev,omitempty"`
	GitDirty bool   `json:"git_dirty,omitempty"`
	// Start is the run's wall-clock start in RFC3339; WallMS the total
	// duration, filled in by the caller when the run finishes.
	Start  string  `json:"start"`
	WallMS float64 `json:"wall_ms,omitempty"`
	// Extra carries tool-specific knobs that change the transport or
	// encoding but not the verdicts (batch size, flush watermark, queue
	// depth, aggregation fanout) — recorded so a run document says how
	// its bytes moved.
	Extra map[string]string `json:"extra,omitempty"`
}

// CollectProvenance fills a Provenance from the running binary and host.
func CollectProvenance(tool, mode string, seed uint64, args []string) Provenance {
	p := Provenance{
		Tool:       tool,
		Args:       args,
		Mode:       mode,
		Seed:       seed,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		PID:        os.Getpid(),
		Start:      time.Now().Format(time.RFC3339), //unifvet:allow wallclock run-document timestamp; provenance never feeds a verdict
	}
	if host, err := os.Hostname(); err == nil {
		p.Hostname = host
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitRev = s.Value
			case "vcs.modified":
				p.GitDirty = s.Value == "true"
			}
		}
	}
	return p
}

// Document is the machine-readable run document shared by all commands:
// provenance, tool-specific results, and an optional metrics snapshot.
// cmd/unifbench -json, cmd/congestsim -json and cmd/gaptest -json all emit
// this envelope, so downstream tooling (BENCH_*.json extraction, CI smoke
// checks) parses one schema.
type Document struct {
	Provenance Provenance `json:"provenance"`
	Results    any        `json:"results,omitempty"`
	Metrics    *Snapshot  `json:"metrics,omitempty"`
}

// WriteJSON writes the document as indented JSON.
func (d Document) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("obs: encode document: %w", err)
	}
	return nil
}
