package simnet_test

import (
	"errors"
	"testing"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/simnet"
	"github.com/unifdist/unifdist/internal/simnet/simnettest"
)

// These tests pin the retained reference engine's failure behaviour
// directly: RunChannel must surface the same typed sentinel errors as the
// flat engine — errors.Is-matchable, with identical message text and
// identical partially-accumulated stats — so a caller that falls back to
// the reference engine sees indistinguishable error semantics.

func TestRunChannelBandwidthExceeded(t *testing.T) {
	g := graph.NewLine(2)
	mk := func() []simnet.Node { return []simnet.Node{&oversized{}, silent{}} }
	cfg := simnet.Config{MaxBytesPerMessage: 16, Seed: 1}

	stats, err := simnettest.RunChannel(g, mk(), cfg)
	if !errors.Is(err, simnet.ErrBandwidthExceeded) {
		t.Fatalf("RunChannel err = %v, want ErrBandwidthExceeded", err)
	}
	flatStats, flatErr := simnet.Run(g, mk(), cfg)
	if !errors.Is(flatErr, simnet.ErrBandwidthExceeded) {
		t.Fatalf("flat engine err = %v, want ErrBandwidthExceeded", flatErr)
	}
	if err.Error() != flatErr.Error() {
		t.Errorf("error text diverges:\n  channel: %v\n  flat:    %v", err, flatErr)
	}
	if stats != flatStats {
		t.Errorf("partial stats diverge: channel=%+v flat=%+v", stats, flatStats)
	}
}

func TestRunChannelMaxRounds(t *testing.T) {
	const limit = 7
	g := graph.NewRing(5)
	mk := func() []simnet.Node {
		nodes := make([]simnet.Node, g.N())
		for i := range nodes {
			nodes[i] = forever{}
		}
		return nodes
	}
	cfg := simnet.Config{MaxRounds: limit, Seed: 1}

	stats, err := simnettest.RunChannel(g, mk(), cfg)
	if !errors.Is(err, simnet.ErrMaxRounds) {
		t.Fatalf("RunChannel err = %v, want ErrMaxRounds", err)
	}
	if stats.Rounds != limit {
		t.Errorf("RunChannel ran %d rounds, want the full limit %d", stats.Rounds, limit)
	}
	flatStats, flatErr := simnet.Run(g, mk(), cfg)
	if !errors.Is(flatErr, simnet.ErrMaxRounds) {
		t.Fatalf("flat engine err = %v, want ErrMaxRounds", flatErr)
	}
	if err.Error() != flatErr.Error() {
		t.Errorf("error text diverges:\n  channel: %v\n  flat:    %v", err, flatErr)
	}
	if stats != flatStats {
		t.Errorf("partial stats diverge: channel=%+v flat=%+v", stats, flatStats)
	}
}

// TestRunChannelBandwidthTracedStats pins that a bandwidth failure still
// delivers the rounds that completed before the violation to the tracer —
// the reference engine must not drop trace events on the error path.
func TestRunChannelBandwidthTracedStats(t *testing.T) {
	g := graph.NewLine(2)
	tr := &recordingTracer{}
	_, err := simnettest.RunChannel(g, []simnet.Node{&oversized{}, silent{}}, simnet.Config{MaxBytesPerMessage: 16, Seed: 1, Tracer: tr})
	if !errors.Is(err, simnet.ErrBandwidthExceeded) {
		t.Fatalf("err = %v, want ErrBandwidthExceeded", err)
	}
	if len(tr.events) == 0 {
		t.Fatal("tracer saw no events before the bandwidth violation")
	}
	flatTr := &recordingTracer{}
	_, flatErr := simnet.Run(g, []simnet.Node{&oversized{}, silent{}}, simnet.Config{MaxBytesPerMessage: 16, Seed: 1, Tracer: flatTr})
	if !errors.Is(flatErr, simnet.ErrBandwidthExceeded) {
		t.Fatalf("flat err = %v, want ErrBandwidthExceeded", flatErr)
	}
	if len(tr.events) != len(flatTr.events) {
		t.Fatalf("trace lengths diverge on failure: channel=%d flat=%d", len(tr.events), len(flatTr.events))
	}
	for i := range tr.events {
		if tr.events[i] != flatTr.events[i] {
			t.Fatalf("trace diverges at event %d: channel=%q flat=%q", i, tr.events[i], flatTr.events[i])
		}
	}
}
