package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
)

// FuzzWireRoundTrip drives the framing from both ends on every frame type,
// bound to session 0 and to a fuzzed session, traced and untraced.
// Structured inputs build one frame of each type from the fuzzed fields
// and assert that encode→decode is lossless with decode∘encode the
// identity, that the routing peeks agree with the decode, that every frame
// fits its FrameCap, and that the concatenated frames read back in order
// through a Reader. The raw bytes are then read as a frame stream and
// framed as bodies of assorted type bytes: each body must decode
// canonically or fail with one of the codec's typed errors — truncated,
// oversized, bad-version, unknown-type, mis-sized and bad-context frames
// all degrade to errors, never panics, exactly as a referee facing a
// hostile peer requires.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint64(0), uint16(0), false, []byte{})
	f.Add(uint32(7), uint32(2000), uint32(60), uint64(3), uint16(64), true,
		AppendSession(nil, &Vote{Trial: 1, Node: 2, Reject: true}, 0, TraceContext{}))
	f.Add(uint32(1<<31), uint32(1), uint32(1<<20), uint64(9), uint16(100), false, []byte{0, 0, 0, 200, 1, 2})
	f.Add(uint32(3), uint32(4), uint32(5), uint64(6), uint16(4095), true, []byte{0, 0, 0, 2, 2, 2})
	f.Add(uint32(0), uint32(1), uint32(2), uint64(1<<40), uint16(7), false, []byte{0xff, 0xff, 0xff, 0xff})
	// The session-frame seeds, then batch and AggHello body tails.
	f.Add(uint32(0), uint32(0), uint32(0), uint64(0), uint16(1), false, []byte{})
	f.Add(uint32(7), uint32(3), uint32(3), uint64(9), uint16(64), true, []byte{0, 1, 2})
	f.Add(uint32(1<<31), uint32(1), uint32(1), uint64(1<<40), uint16(100), false,
		AppendSession(nil, &Vote{Trial: 1, Node: 2, Reject: true}, 3, TraceContext{})[4:])
	f.Add(uint32(5), uint32(2), uint32(2), uint64(11), uint16(4096), true, []byte{2, 9, 0, 0, 0, 1, 0, 1})
	f.Add(uint32(2), uint32(3), uint32(9), uint64(12), uint16(8191), false,
		AppendSession(nil, &VoteBatch{Votes: []BatchVote{{Trial: 1, Node: 2}}}, 0, TraceContext{})[6:])
	f.Add(uint32(9), uint32(4), uint32(8), uint64(13), uint16(2047), false,
		AppendSession(nil, &AggHello{Agg: 1, K: 8, Trials: 4, Lo: 0, Hi: 4}, 0, TraceContext{})[6:])
	f.Fuzz(func(t *testing.T, sess, a, b uint32, seed uint64, count uint16, flag bool, raw []byte) {
		report := fuzzReport(sess|1, 1<<31|a, seed, int(count)%MaxReportTrials+1)
		votes := int(count)%MaxBatchVotes + 1
		frames := []Frame{
			&Hello{Node: a, K: b, Trials: uint32(count)},
			&Vote{Trial: a, Node: b, Reject: flag},
			&Done{Node: a},
			&Verdict{Trials: a, Accepts: b, Missing: sess},
			&VoteBatch{Votes: advVotes(seed, votes)},
			&VoteBatch{Votes: seqVotes(int(b), votes)},
			&AggHello{Agg: a, K: b, Trials: uint32(count), Lo: a >> 1, Hi: a>>1 + 1},
			&PartialVerdict{Agg: a, Entries: advPartialEntries(seed, int(count)%MaxPartialEntries+1)},
			&SessionOpen{Tenant: a, K: b, Trials: uint32(count), Seed: seed,
				Rule: byte(seed), Thresh: a},
			&SessionAccept{Session: sess | 1, Tenant: a},
			&SessionReject{Tenant: a, Reason: byte(seed)%rejectReasonMax + 1},
			report,
		}
		tc := TraceContext{Trace: seed | 1, Span: uint64(a)<<32 | uint64(b)}
		type sent struct {
			f       Frame
			session uint32
			tc      TraceContext
		}
		var stream []byte
		var want []sent
		var sc DecodeScratch
		for _, fr := range frames {
			for _, ctx := range []TraceContext{{}, tc} {
				for _, session := range []uint32{0, sess | 1} {
					enc := AppendSession(nil, fr, session, ctx)
					body := enc[headerBytes:]
					if len(body) > FrameCap(BodyType(body)) {
						t.Fatalf("%T: frame body %d bytes exceeds its cap", fr, len(body))
					}
					got, gotTC, gotSess, err := DecodeBodySession(body, &sc)
					if err != nil {
						t.Fatalf("%T: decode own encoding (session %d): %v", fr, session, err)
					}
					if !hasSessionField(fr.Type()) {
						session = 0 // control frames carry no session field
					}
					if gotSess != session || gotTC != ctx || !sameFrame(got, fr) {
						t.Fatalf("%T: round trip mismatch (session %d→%d)", fr, session, gotSess)
					}
					if SessionOf(body) != gotSess || BodyType(body) != got.Type() {
						t.Fatalf("%T: peeks (type %d, session %d) disagree with the decode", fr, BodyType(body), SessionOf(body))
					}
					if re := AppendSession(nil, got, gotSess, gotTC); !bytes.Equal(re, enc) {
						t.Fatalf("%T: re-encode mismatch: %x vs %x", fr, re, enc)
					}
					stream = append(stream, enc...)
					want = append(want, sent{fr, session, ctx})
				}
			}
		}
		r := NewReader(bytes.NewReader(stream))
		for i, w := range want {
			body, err := r.ReadBody()
			if err != nil {
				t.Fatalf("stream frame %d: %v", i, err)
			}
			got, gotTC, gotSess, err := DecodeBodySession(body, &sc)
			if err != nil || gotSess != w.session || gotTC != w.tc || !sameFrame(got, w.f) {
				t.Fatalf("stream frame %d (%T): got (%#v, %+v, session %d, %v)", i, w.f, got, gotTC, gotSess, err)
			}
		}
		if _, err := r.ReadBody(); err != io.EOF {
			t.Fatalf("stream end: err = %v, want io.EOF", err)
		}

		// Adversarial path: the raw bytes as a frame stream, then as bodies
		// of the established, retired, control, traced and fuzzed type
		// bytes.
		adversarial := func(body []byte) {
			fr, ftc, fsess, err := DecodeBodySession(body, &sc)
			if err != nil {
				checkCodecErr(t, err)
				return
			}
			checkCanonical(t, body, fr, ftc, fsess)
		}
		rr := NewReader(bytes.NewReader(raw))
		for {
			body, err := rr.ReadBody()
			if err != nil {
				checkCodecErr(t, err)
				break
			}
			adversarial(body)
		}
		for _, typ := range []byte{TypeHello, TypeVote, TypeVote | traceFlag, typeRetiredSketch, TypeVoteBatch, typeRetiredBatch,
			TypeVoteBatch | traceFlag, TypeAggHello, TypePartialVerdict, TypePartialVerdict | traceFlag,
			TypeSessionOpen, TypeSessionReport, TypeSessionReport | traceFlag, byte(seed)} {
			body := append([]byte{Version, typ}, raw...)
			if len(body) > MaxBatchFrameBytes {
				body = body[:MaxBatchFrameBytes]
			}
			adversarial(body)
		}
	})
}

// sameFrame reports whether the decoded frame got carries want, a
// VoteRun counting as the VoteBatch of its rows.
func sameFrame(got, want Frame) bool {
	if r, ok := got.(*VoteRun); ok {
		got = &VoteBatch{Votes: r.AppendVotes(nil)}
	}
	return reflect.DeepEqual(got, want)
}

// fuzzReport builds a valid n-trial report for session and k from a
// seed: each trial's votes, rejects ≤ votes and missing ≤ k − votes
// spread across their ranges. The moduli are taken in 64 bits so k =
// MaxUint32 does not wrap them to zero.
func fuzzReport(session, k uint32, seed uint64, n int) *SessionReport {
	r := &SessionReport{Session: session, K: k,
		Verdicts: make([]bool, n), Rejects: make([]uint32, n),
		Votes: make([]uint32, n), Missing: make([]uint32, n)}
	s := seed
	for i := 0; i < n; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		r.Votes[i] = uint32(uint64(uint32(s)) % (uint64(k) + 1))
		r.Rejects[i] = uint32(s>>16) % (r.Votes[i] + 1)
		r.Missing[i] = uint32(uint64(uint32(s>>32)) % (uint64(k-r.Votes[i]) + 1))
		r.Verdicts[i] = s>>63 == 1
	}
	return r
}

// checkCodecErr fails t unless err is io.EOF or one of the codec's typed
// errors.
func checkCodecErr(t *testing.T, err error) {
	t.Helper()
	for _, known := range []error{io.EOF, ErrTruncated, ErrOversize, ErrVersion, ErrUnknownType,
		ErrFrameSize, ErrTraceContext, ErrSession} {
		if errors.Is(err, known) {
			return
		}
	}
	t.Fatalf("unexpected error class: %v", err)
}

// checkCanonical asserts that a decoded body holds a count its encoder
// accepts and re-encodes to exactly its bytes.
func checkCanonical(t *testing.T, body []byte, f Frame, tc TraceContext, session uint32) {
	t.Helper()
	switch v := f.(type) {
	case *VoteBatch:
		if len(v.Votes) == 0 || len(v.Votes) > MaxBatchVotes {
			t.Fatalf("decoded batch with %d votes", len(v.Votes))
		}
	case *VoteRun:
		if v.N == 0 || v.N > MaxBatchVotes {
			t.Fatalf("decoded run of %d votes", v.N)
		}
	case *PartialVerdict:
		if len(v.Entries) == 0 || len(v.Entries) > MaxPartialEntries {
			t.Fatalf("decoded partial verdict with %d entries", len(v.Entries))
		}
	}
	if re := AppendSession(nil, f, session, tc)[headerBytes:]; !bytes.Equal(re, body) {
		t.Fatalf("%s body not canonical: %x vs %x", TypeName(BodyType(body)), re, body)
	}
}

// FuzzVoteBatchRoundTrip drives the batch encoder: fuzzed batches
// (typical and adversarial shapes, traced and untraced) must round-trip
// losslessly, with decode→re-encode byte equality and the vote-count cap
// enforced. Raw bytes framed as batch bodies are FuzzWireRoundTrip's job.
func FuzzVoteBatchRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint32(0), uint64(0))
	f.Add(uint16(100), uint32(42), uint64(7))
	f.Add(uint16(64), uint32(3), uint64(9))
	f.Add(uint16(4096), uint32(1999), uint64(3))
	f.Fuzz(func(t *testing.T, count uint16, node uint32, seed uint64) {
		n := int(count)%MaxBatchVotes + 1
		b := &VoteBatch{}
		if seed%2 == 0 {
			// Typical shape: one node, trials in order.
			for i := 0; i < n; i++ {
				b.Votes = append(b.Votes, BatchVote{Trial: uint32(i), Node: node, Reject: (uint64(i)+seed)%3 == 0})
			}
		} else {
			b.Votes = advVotes(seed, n)
		}
		var e BatchEncoder
		tc := TraceContext{Trace: seed | 1, Span: seed >> 1}
		for _, ctx := range []TraceContext{{}, tc} {
			enc, err := e.AppendSession(nil, b, 0, ctx, false)
			if err != nil {
				t.Fatalf("encode %d votes: %v", n, err)
			}
			if len(enc)-4 > MaxBatchFrameBytes {
				t.Fatalf("batch frame body %d bytes exceeds cap", len(enc)-4)
			}
			got, gotTC, _ := decodeFrame(t, enc)
			if votes, _ := batchRows(got); gotTC != ctx || !reflect.DeepEqual(votes, b.Votes) {
				t.Fatal("batch round trip mismatch")
			}
			// Batches are bijective: decode→re-encode is identity.
			if re := AppendSession(nil, got, 0, ctx); !bytes.Equal(re, enc) {
				t.Fatalf("batch re-encode mismatch: %x vs %x", re, enc)
			}
		}
		// Cap enforcement survives fuzzing.
		over := &VoteBatch{Votes: make([]BatchVote, MaxBatchVotes+1)}
		if _, err := e.AppendSession(nil, over, 0, TraceContext{}, false); !errors.Is(err, ErrOversize) {
			t.Fatalf("oversize batch: err = %v", err)
		}
	})
}

// runPayload builds a batch payload in run form by hand: n
// votes of node on trials t0 … t0+n−1, reject bits taken from rejects and
// trailing bitset bits zero. t0 and node are not range-checked, so a run
// can wrap past MaxUint32 or name a node the codec rejects.
func runPayload(n int, t0, node, rejects uint64) []byte {
	p := binary.AppendUvarint([]byte{0}, uint64(n))
	p = append(binary.AppendUvarint(p, t0), bytes.Repeat([]byte{0x02}, n-1)...)
	p = append(binary.AppendUvarint(p, node), make([]byte, n-1)...)
	for i := 0; i < n; i += 8 {
		bits := byte(rejects >> (i % 64))
		if n-i < 8 {
			bits &= 1<<(n-i) - 1
		}
		p = append(p, bits)
	}
	return p
}

// runPath decodes a batch payload, returning its rows and whether the
// decoder took the run path.
func runPath(p []byte) ([]BatchVote, bool) {
	f, err := new(DecodeScratch).decodeBatch(p)
	if err != nil {
		return nil, false
	}
	votes, _ := batchRows(f)
	_, run := f.(*VoteRun)
	return votes, run
}

// columnsOnly decodes a batch payload with the column decoder alone —
// decodeBatch's checks and column path, without the run path — as the
// reference the run path must match.
func columnsOnly(p []byte) ([]BatchVote, error) {
	if len(p) < 2 || p[0] != 0 {
		return nil, errors.New("nonzero flags byte")
	}
	cnt, off, err := readUvarint(p, 1)
	if err != nil || cnt == 0 || cnt > MaxBatchVotes {
		return nil, fmt.Errorf("count %d: %v", cnt, err)
	}
	n := int(cnt)
	cols := make([]uint32, 2*n)
	for c := 0; c < 2; c++ {
		if off, err = decodeColumn(p, off, cols[c*n:(c+1)*n]); err != nil {
			return nil, err
		}
	}
	bits := p[off:]
	if len(bits) != (n+7)/8 {
		return nil, fmt.Errorf("%d bitset bytes for %d votes", len(bits), n)
	}
	votes := make([]BatchVote, n)
	for i := range votes {
		votes[i] = BatchVote{Trial: cols[i], Node: cols[n+i], Reject: bits[i/8]&(1<<(i%8)) != 0}
	}
	for i := n; i < 8*len(bits); i++ {
		if bits[i/8]&(1<<(i%8)) != 0 {
			return nil, fmt.Errorf("bitset bit %d set past %d votes", i, n)
		}
	}
	return votes, nil
}

// FuzzVoteBatchRunMatchesColumns pins the VoteBatch run path to the
// column decoder: every payload — arbitrary bytes, or a
// hand-built run with one byte replaced, one byte cut or one byte added —
// decodes through decodeBatch as through the column decoder alone
// (columnsOnly): both fail, or both give the same rows, a VoteRun's
// expanded. A payload takes the run path exactly when its rows are a
// run, so the pin cannot hold vacuously, and every VoteRun it returns
// re-encodes to the payload's own bytes.
func FuzzVoteBatchRunMatchesColumns(f *testing.F) {
	const max32 = math.MaxUint32
	// edit: 0 none, 1 set byte at%len to val, 2 cut the last byte, 3
	// append val.
	add := func(n int, t0, node, rejects uint64, at int, val, edit byte) {
		f.Add([]byte(nil), uint16(n-1), t0, node, rejects, uint16(at), val, edit)
	}
	add(1, 0, 0, 1, 0, 0, 0)
	add(MaxBatchVotes, 7, 5, 0xdeadbeef, 0, 0, 0)
	add(1024, max32-1023, 9, 3, 0, 0, 0)     // last trial is MaxUint32
	add(1024, max32-1022, 9, 3, 0, 0, 0)     // wraps: both decoders fail
	add(MaxBatchVotes, 3, max32, 1, 0, 0, 0) // largest node
	add(100, 3, uint64(max32)+1, 1, 0, 0, 0) // node past MaxUint32
	// Offsets of the two delta runs in runPayload(100, 1000, 7, ·).
	trialRun := 1 + uvarintLen(100) + uvarintLen(1000)
	nodeRun := trialRun + 99 + uvarintLen(7)
	for _, val := range []byte{0x04, 0x01, 0x82} {
		add(100, 1000, 7, 0x55, trialRun+50, val, 1)
		add(100, 1000, 7, 0x55, nodeRun+98, val, 1)
	}
	add(9, 0, 2, 0x1ff, len(runPayload(9, 0, 2, 0))-1, 0x81, 1) // nonzero trailing bits
	add(64, 5, 6, 7, 0, 0, 2)                                   // one byte short
	add(64, 5, 6, 7, 0, 0, 3)                                   // one byte long
	f.Add([]byte{2, 5, 2, 0x40, 1}, uint16(0), uint64(0), uint64(0), uint64(0), uint16(0), byte(0), byte(0))
	f.Fuzz(func(t *testing.T, raw []byte, count uint16, t0, node, rejects uint64, at uint16, val, edit byte) {
		var p []byte
		if len(raw) > 0 {
			p = append([]byte{0}, raw...) // the flags byte, then anything
		} else {
			p = runPayload(int(count)%MaxBatchVotes+1, t0, node, rejects)
			switch edit % 4 {
			case 1:
				p[int(at)%len(p)] = val
			case 2:
				p = p[:len(p)-1]
			case 3:
				p = append(p, val)
			}
		}
		f, err := new(DecodeScratch).decodeBatch(p)
		want, errCols := columnsOnly(p)
		if (err == nil) != (errCols == nil) {
			t.Fatalf("%d-byte payload %.24x…: decodeBatch error %v, column decoder %v", len(p), p, err, errCols)
		}
		if errCols != nil {
			return
		}
		if got, _ := batchRows(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-byte payload %.24x…: decodeBatch rows differ from the column decoder's", len(p), p)
		}
		r, run := f.(*VoteRun)
		if run != isRun(want) {
			t.Fatalf("%d-byte payload %.24x…: run path taken = %v, rows are a run = %v", len(p), p, run, isRun(want))
		}
		if run && !bytes.Equal(r.appendPayload(nil), p) {
			t.Fatalf("%d-byte payload %.24x…: run re-encodes to %.24x…", len(p), p, r.appendPayload(nil))
		}
	})
}

// advPartialEntries builds adversarial partial entries from a seed:
// trial/votes/rejects jump across the u32 range (worst-case deltas),
// always keeping the per-entry validity the decoder enforces (votes ≥ 1,
// rejects ≤ votes).
func advPartialEntries(seed uint64, n int) []PartialEntry {
	es := make([]PartialEntry, n)
	s := seed
	for i := range es {
		s = s*6364136223846793005 + 1442695040888963407
		e := &es[i]
		e.Trial = uint32(s >> 32)
		e.Votes = uint32(s)%1000 + 1
		e.Rejects = uint32(s>>16) % (e.Votes + 1)
	}
	return es
}

// FuzzPartialVerdictRoundTrip drives the aggregation-tier encoder: fuzzed
// partial verdicts (typical and adversarial shapes, traced and untraced)
// must round-trip losslessly with decode→re-encode
// byte equality and the entry-count cap enforced. Raw bytes framed as
// partial bodies are FuzzWireRoundTrip's job.
func FuzzPartialVerdictRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint32(0), uint64(0))
	f.Add(uint16(64), uint32(3), uint64(7))
	f.Add(uint16(500), uint32(9), uint64(2))
	f.Add(uint16(2048), uint32(1), uint64(5))
	f.Fuzz(func(t *testing.T, count uint16, agg uint32, seed uint64) {
		n := int(count)%MaxPartialEntries + 1
		p := &PartialVerdict{Agg: agg}
		if seed%2 == 0 {
			// Typical shape: consecutive trials, near-constant sums.
			p.Entries = make([]PartialEntry, n)
			for i := range p.Entries {
				e := &p.Entries[i]
				e.Trial = uint32(i)
				e.Votes = uint32(seed%64) + 1
				e.Rejects = uint32((seed + uint64(i))) % (e.Votes + 1)
			}
		} else {
			p.Entries = advPartialEntries(seed, n)
		}
		tc := TraceContext{Trace: seed | 1, Span: seed >> 1}
		for _, ctx := range []TraceContext{{}, tc} {
			enc, err := AppendPartialSession(nil, p, 0, ctx)
			if err != nil {
				t.Fatalf("encode %d entries: %v", n, err)
			}
			if len(enc)-4 > MaxBatchFrameBytes {
				t.Fatalf("partial frame body %d bytes exceeds cap", len(enc)-4)
			}
			got, gotTC, _ := decodeFrame(t, enc)
			pv := got.(*PartialVerdict)
			if gotTC != ctx || !reflect.DeepEqual(pv.Entries, p.Entries) {
				t.Fatal("partial round trip mismatch")
			}
			// Partial frames are bijective: decode→re-encode is identity.
			if re := AppendSession(nil, pv, 0, ctx); !bytes.Equal(re, enc) {
				t.Fatalf("partial re-encode mismatch: %x vs %x", re, enc)
			}
		}
		// Cap enforcement survives fuzzing.
		over := &PartialVerdict{Agg: agg, Entries: make([]PartialEntry, MaxPartialEntries+1)}
		if _, err := AppendPartialSession(nil, over, 0, TraceContext{}); !errors.Is(err, ErrOversize) {
			t.Fatalf("oversize partial: err = %v", err)
		}
	})
}
