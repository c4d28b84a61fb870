package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/obs/trace"
)

// spanLog keeps a traced run's spans in memory — internal/obs/trace over
// a journal backed by a buffer — until the run ends, when they are written
// out and folded into the per-layer ledger.
type spanLog struct {
	buf bytes.Buffer
	tr  *trace.Tracer
}

func newSpanLog(seed uint64) *spanLog {
	l := &spanLog{}
	l.tr = trace.New(obs.NewJournal(&l.buf), trace.Derive("perfbench", seed))
	return l
}

// tracer returns the log's tracer; a nil log gives the disabled tracer.
func (l *spanLog) tracer() *trace.Tracer {
	if l == nil {
		return nil
	}
	return l.tr
}

// spanStat is the fold of all spans of one name.
type spanStat struct {
	durNS []float64
	sumNS float64
	votes float64 // sum of the spans' "votes" attribute
}

// median is the median span duration in ns, or 0 without spans.
func (s *spanStat) median() float64 {
	if s == nil {
		return 0
	}
	return median(s.durNS)
}

// nsPerVote is the spans' total duration over their total votes.
func (s *spanStat) nsPerVote() float64 {
	if s == nil {
		return 0
	}
	return ratio(s.sumNS, s.votes)
}

// foldSpans reads span JSONL as written by internal/obs/trace and folds
// it by span name.
func foldSpans(r io.Reader) (map[string]*spanStat, error) {
	stats := map[string]*spanStat{}
	dec := json.NewDecoder(r)
	for {
		var rec struct {
			Kind  string         `json:"kind"`
			Name  string         `json:"name"`
			DurNS int64          `json:"dur_ns"`
			Attrs map[string]any `json:"attrs"`
		}
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("fold spans: %w", err)
		}
		if rec.Kind != "span" {
			continue
		}
		s := stats[rec.Name]
		if s == nil {
			s = &spanStat{}
			stats[rec.Name] = s
		}
		s.durNS = append(s.durNS, float64(rec.DurNS))
		s.sumNS += float64(rec.DurNS)
		if v, ok := rec.Attrs["votes"].(float64); ok {
			s.votes += v
		}
	}
	return stats, nil
}

// writeAndFold writes the spans to path and folds them.
func (l *spanLog) writeAndFold(path string) (map[string]*spanStat, error) {
	if err := os.WriteFile(path, l.buf.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return foldSpans(bytes.NewReader(l.buf.Bytes()))
}

// median returns the median of xs (which it sorts), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
