package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/wire"
)

// Replay passes are cumulative: each adds one layer to the previous, so
// a layer's cost is the difference of two whole-pass times. Timing whole
// node streams instead of single calls matters because one clock read
// costs about as much as decoding one Vote frame.
const (
	passRead   = iota // wire.Reader.ReadBody
	passDecode        // + wire.DecodeBodySession
	passApply         // + Referee.Handshake / Peer.Apply
)

// replayStats are one session's layer costs, replayed in one goroutine.
type replayStats struct {
	votes, frames, bytes int
	readNS, decodeNS     float64 // whole-pass medians
	applyNS              float64
	partialEntries       int
	partialDecodeNS      float64
	partialApplyNS       float64
	finalizeNS           float64
}

func (r *replayStats) readNSPerFrame() float64 { return ratio(r.readNS, float64(r.frames)) }

func (r *replayStats) decodeNSPerVote() float64 {
	return ratio(r.decodeNS-r.readNS, float64(r.votes))
}

func (r *replayStats) applyNSPerVote() float64 {
	return ratio(r.applyNS-r.decodeNS, float64(r.votes))
}

func (r *replayStats) partialNSPerEntry() float64 {
	return ratio(r.partialApplyNS-r.partialDecodeNS, float64(r.partialEntries))
}

// replaySession replays one session's exact frames — the node streams the
// clients send, and for a tree the partial sums its shards send the root —
// through wire.Reader.ReadBody → wire.DecodeBodySession →
// Referee.Handshake/Peer.Apply → Referee.Finalize, timing each
// cumulative pass over reps repetitions and keeping the medians. Every
// replayed session must report the reference.
func replaySession(w svcWorkload, in *input) (replayStats, error) {
	const session = 1
	var rs replayStats
	var leaf streams
	if err := encodeSession(&leaf, in, session, w.batch); err != nil {
		return rs, err
	}
	rs.votes, rs.frames, rs.bytes = in.k*in.trials, len(leaf.ends), len(leaf.buf)
	reps := (4 << 20) / rs.votes
	reps = max(5, min(reps, 400))

	leafTimes, leafFinalize, err := replayStreams(&leaf, in, reps)
	if err != nil {
		return rs, fmt.Errorf("replay node streams: %w", err)
	}
	rs.readNS, rs.decodeNS, rs.applyNS = leafTimes[passRead], leafTimes[passDecode], leafTimes[passApply]
	rs.finalizeNS = leafFinalize
	if w.shards == 0 {
		return rs, nil
	}
	var part streams
	if err := encodePartials(&part, in, session, w.shards); err != nil {
		return rs, err
	}
	partTimes, rootFinalize, err := replayStreams(&part, in, reps)
	if err != nil {
		return rs, fmt.Errorf("replay partial streams: %w", err)
	}
	rs.partialEntries = w.shards * in.trials
	rs.partialDecodeNS, rs.partialApplyNS = partTimes[passDecode], partTimes[passApply]
	rs.finalizeNS = rootFinalize
	return rs, nil
}

// replayStreams runs reps rounds of the three cumulative passes over s,
// each apply pass into a fresh referee, and returns the median pass times
// and the median Finalize time in ns.
func replayStreams(s *streams, in *input, reps int) ([3]float64, float64, error) {
	var med [3]float64
	times := [3][]float64{}
	var fin []float64
	for r := 0; r < reps; r++ {
		for mode := passRead; mode <= passApply; mode++ {
			var rf *cluster.Referee
			if mode == passApply {
				rf = cluster.NewReferee(in.k, in.nw.Rule(), cluster.Config{Trials: in.trials, BaseSeed: in.base, Session: 1})
			}
			d, err := replayPass(s, mode, rf)
			if err != nil {
				return med, 0, err
			}
			times[mode] = append(times[mode], float64(d))
			if rf == nil {
				continue
			}
			start := time.Now()
			rep, _, _ := rf.Finalize()
			fin = append(fin, float64(time.Since(start)))
			if err := checkReport(rep, in); err != nil {
				return med, 0, fmt.Errorf("replayed report: %w", err)
			}
		}
	}
	for mode := range med {
		med[mode] = median(times[mode])
	}
	return med, median(fin), nil
}

// replayPass reads every peer stream of s from memory, through the
// layers mode names, and returns the pass's wall time.
func replayPass(s *streams, mode int, rf *cluster.Referee) (time.Duration, error) {
	var (
		sc wire.DecodeScratch
		rd bytes.Reader
	)
	start := time.Now()
	for p := 0; p < s.peers(); p++ {
		lo := 0
		if s.first[p] > 0 {
			lo = s.ends[s.first[p]-1]
		}
		rd.Reset(s.buf[lo:s.ends[s.first[p+1]-1]])
		r := wire.NewReader(&rd)
		var peer *cluster.Peer
		for {
			body, err := r.ReadBody()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			if mode == passRead {
				continue
			}
			f, tc, _, err := wire.DecodeBodySession(body, &sc)
			if err != nil {
				return 0, err
			}
			if mode == passDecode {
				continue
			}
			if peer == nil {
				if peer, err = rf.Handshake(f); err != nil {
					return 0, err
				}
				continue
			}
			if _, err := peer.Apply(f, tc, len(body)+4); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}
