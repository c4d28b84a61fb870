package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// sessionTestFrames returns one frame of every established type with
// distinctive field values.
func sessionTestFrames() []Frame {
	return []Frame{
		&Hello{Node: 3, K: 100, Trials: 7},
		&Vote{Trial: 2, Node: 3, Reject: true},
		&Done{Node: 3},
		&Verdict{Trials: 7, Accepts: 5, Missing: 1},
		&VoteBatch{Votes: []BatchVote{{Trial: 0, Node: 3}, {Trial: 1, Node: 3, Reject: true}}},
		&AggHello{Agg: 2, K: 100, Trials: 7, Lo: 10, Hi: 20},
		&PartialVerdict{Agg: 2, Entries: []PartialEntry{{Trial: 0, Votes: 10, Rejects: 4}}},
	}
}

// TestSessionSuffixRoundTrip pins the nonzero-session path: every
// established type round-trips through the session field with the session
// ID intact and decode∘encode the identity.
func TestSessionSuffixRoundTrip(t *testing.T) {
	tcs := []TraceContext{{}, {Trace: 9, Span: 4}}
	var sc DecodeScratch
	for _, fr := range sessionTestFrames() {
		for _, tc := range tcs {
			for _, sess := range []uint32{1, 7, 1 << 30} {
				enc := AppendSession(nil, fr, sess, tc)
				got, gotTC, gotSess, err := DecodeBodySession(enc[4:], &sc)
				if err != nil {
					t.Fatalf("%T: decode own session encoding: %v", fr, err)
				}
				if gotSess != sess || gotTC != tc {
					t.Fatalf("%T: got (session %d, %+v), want (%d, %+v)", fr, gotSess, gotTC, sess, tc)
				}
				if !sameFrame(got, fr) {
					t.Fatalf("%T: session round trip: got %#v", fr, got)
				}
				if re := AppendSession(nil, got, gotSess, gotTC); !bytes.Equal(re, enc) {
					t.Fatalf("%T: session re-encode mismatch: %x vs %x", fr, re, enc)
				}
			}
		}
	}
}

// TestSessionControlRoundTrip pins the codec of the four session control
// frames, traced and untraced.
func TestSessionControlRoundTrip(t *testing.T) {
	frames := []Frame{
		&SessionOpen{Tenant: 5, K: 100, Trials: 7, Seed: 99, Rule: RuleThreshold, Thresh: 11},
		&SessionOpen{Tenant: 1, K: 10, Trials: 2, Seed: 3, Rule: RuleAND},
		&SessionAccept{Session: 12, Tenant: 5},
		&SessionReject{Tenant: 5, Reason: RejectBudget},
		&SessionReport{Session: 12, K: 10, Verdicts: []bool{true, false, true},
			Rejects: []uint32{0, 4, 1}, Votes: []uint32{10, 9, 10}, Missing: []uint32{0, 1, 0}},
		// Rejects deltas +63, -63 (one-byte zigzag), +64 (two bytes), -64
		// (one byte); a votes column alternating five-byte and one-byte
		// entries.
		&SessionReport{Session: 12, K: 4294967295, Verdicts: []bool{true, false, true, true, false, true},
			Rejects: []uint32{0, 63, 0, 64, 0, 1}, Votes: []uint32{64, 4000000000, 4000000001, 64, 65, 4000000000},
			Missing: []uint32{0, 0, 0, 0, 0, 0}},
	}
	var sc DecodeScratch
	for _, fr := range frames {
		for _, tc := range []TraceContext{{}, {Trace: 3, Span: 8}} {
			enc := AppendSession(nil, fr, 0, tc)
			got, gotTC, gotSess, err := DecodeBodySession(enc[4:], &sc)
			if err != nil {
				t.Fatalf("%T: decode: %v", fr, err)
			}
			if gotSess != 0 {
				t.Fatalf("%T: control frame decoded with suffix session %d", fr, gotSess)
			}
			if gotTC != tc || !reflect.DeepEqual(got, fr) {
				t.Fatalf("%T: round trip: got (%#v, %+v)", fr, got, gotTC)
			}
			if re := AppendSession(nil, got, 0, gotTC); !bytes.Equal(re, enc) {
				t.Fatalf("%T: re-encode mismatch", fr)
			}
			// AppendSession never stamps a suffix on control frames.
			if withSess := AppendSession(nil, fr, 42, tc); !bytes.Equal(withSess, enc) {
				t.Fatalf("%T: AppendSession added a suffix to a control frame", fr)
			}
		}
	}
}

// TestSessionControlValidation pins the typed decode errors of the control
// frames — out-of-range reject reasons (the retired default reason 5
// included), zero accept sessions, any open flag bit (the retired flags
// 0x01, 0x02 and 0x04 included) — and that an established type without
// its session field fails.
func TestSessionControlValidation(t *testing.T) {
	for _, reason := range []byte{0, 5, 99} {
		if _, _, _, err := DecodeBodySession(AppendSession(nil, &SessionReject{Tenant: 1, Reason: reason}, 0, TraceContext{})[4:], nil); !errors.Is(err, ErrFrameSize) {
			t.Errorf("reason %d: err = %v, want ErrFrameSize", reason, err)
		}
	}
	if _, _, _, err := DecodeBodySession(AppendSession(nil, &SessionAccept{Session: 0, Tenant: 1}, 0, TraceContext{})[4:], nil); !errors.Is(err, ErrSession) {
		t.Errorf("accept session 0: err = %v, want ErrSession", err)
	}
	open := AppendSession(nil, &SessionOpen{Tenant: 1, K: 2, Trials: 3, Rule: RuleAND}, 0, TraceContext{})
	for _, bit := range []byte{0x01, 0x02, 0x04, 0x80} {
		body := append([]byte(nil), open[4:]...)
		body[len(body)-1] |= bit // a spare flag bit
		if _, _, _, err := DecodeBodySession(body, nil); !errors.Is(err, ErrFrameSize) {
			t.Errorf("open flag %#x: err = %v, want ErrFrameSize", bit, err)
		}
	}
	vote := AppendSession(nil, &Vote{Trial: 1, Node: 2}, 0, TraceContext{})
	bare := vote[4 : len(vote)-sessionBytes]
	if _, _, _, err := DecodeBodySession(bare, nil); !errors.Is(err, ErrFrameSize) {
		t.Errorf("vote without its session field: err = %v, want ErrFrameSize", err)
	}
}

// TestSessionReportValidation pins the report codec's caps and per-trial
// validity checks.
func TestSessionReportValidation(t *testing.T) {
	mk := func(n int) *SessionReport {
		r := &SessionReport{Session: 1, K: 100,
			Verdicts: make([]bool, n), Rejects: make([]uint32, n),
			Votes: make([]uint32, n), Missing: make([]uint32, n)}
		for i := 0; i < n; i++ {
			r.Votes[i] = 100
		}
		return r
	}
	if _, err := AppendSessionReport(nil, mk(MaxReportTrials+1), TraceContext{}); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize report: err = %v, want ErrOversize", err)
	}
	if _, err := AppendSessionReport(nil, &SessionReport{Session: 1}, TraceContext{}); err == nil {
		t.Error("empty report: err = nil")
	}
	ragged := mk(4)
	ragged.Votes = ragged.Votes[:3]
	if _, err := AppendSessionReport(nil, ragged, TraceContext{}); err == nil {
		t.Error("ragged report: err = nil")
	}
	// Decoder-side validity: rejects > votes and votes+missing > k fail.
	bad := mk(2)
	bad.Rejects[1] = 101
	enc := AppendSession(nil, bad, 0, TraceContext{})
	if _, _, _, err := DecodeBodySession(enc[4:], nil); !errors.Is(err, ErrFrameSize) {
		t.Errorf("rejects > votes: err = %v, want ErrFrameSize", err)
	}
	bad = mk(2)
	bad.Missing[0] = 1 // votes already 100 of k=100
	enc = AppendSession(nil, bad, 0, TraceContext{})
	if _, _, _, err := DecodeBodySession(enc[4:], nil); !errors.Is(err, ErrFrameSize) {
		t.Errorf("votes+missing > k: err = %v, want ErrFrameSize", err)
	}
	// Hand-built two-trial bodies (session 1, k 100, no verdict bits)
	// followed by the rejects, votes and missing columns.
	for _, c := range []struct {
		name string
		cols []byte
	}{
		{"non-minimal column value", []byte{0x80, 0x00, 0, 1, 0, 0, 0}},
		{"delta below 0", []byte{0, 1 /* -1 */, 1, 0, 0, 0}},
		{"delta above MaxUint32", []byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 2 /* +1 */, 0, 0}},
		{"column cut inside a varint", []byte{0, 0, 1, 0x80}},
	} {
		body := append([]byte{Version, TypeSessionReport, 0, 0, 0, 1, 0, 0, 0, 100, 2, 0}, c.cols...)
		if _, _, _, err := DecodeBodySession(body, nil); !errors.Is(err, ErrFrameSize) {
			t.Errorf("%s: err = %v, want ErrFrameSize", c.name, err)
		}
	}
	// A zero-session report is invalid.
	bad = mk(1)
	bad.Session = 0
	enc = AppendSession(nil, bad, 0, TraceContext{})
	if _, _, _, err := DecodeBodySession(enc[4:], nil); !errors.Is(err, ErrSession) {
		t.Errorf("session-0 report: err = %v, want ErrSession", err)
	}
}

// TestSessionBatchAndPartialCaps pins the entry-count caps of the
// session-bound batch and partial encoders.
func TestSessionBatchAndPartialCaps(t *testing.T) {
	var e BatchEncoder
	over := &VoteBatch{Votes: make([]BatchVote, MaxBatchVotes+1)}
	if _, err := e.AppendSession(nil, over, 3, TraceContext{}, false); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize session batch: err = %v", err)
	}
	overP := &PartialVerdict{Agg: 1, Entries: make([]PartialEntry, MaxPartialEntries+1)}
	if _, err := AppendPartialSession(nil, overP, 3, TraceContext{}); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize session partial: err = %v", err)
	}
}

// FuzzSessionFrameRoundTrip drives the session field and the session
// control payloads from structured inputs. Binding an established frame
// to a fuzzed session rewrites only the four session bytes ahead of the
// trace suffix, and SessionOf reads them back. Fuzzed control frames — an
// open, an accept, a reject and a report of up to MaxReportTrials trials
// — round-trip with decode∘encode the identity, ignore the session
// argument, and the report encoder enforces its trial cap. Raw bytes
// framed as bodies are FuzzWireRoundTrip's job.
func FuzzSessionFrameRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint64(0), uint16(1), false)
	f.Add(uint32(7), uint32(3), uint64(9), uint16(64), true)
	f.Add(uint32(1<<31), uint32(1), uint64(1<<40), uint16(100), false)
	f.Add(uint32(5), uint32(2), uint64(11), uint16(4096), true)
	f.Add(uint32(9), uint32(4), uint64(12), uint16(MaxReportTrials-1), false) // the largest report
	f.Fuzz(func(t *testing.T, sess, a uint32, seed uint64, count uint16, flag bool) {
		tc := TraceContext{Trace: seed | 1, Span: seed >> 3}
		established := []Frame{
			&Hello{Node: a, K: a + 1, Trials: uint32(count)},
			&Vote{Trial: a, Node: sess, Reject: flag},
			&Done{Node: a},
			&Verdict{Trials: uint32(count), Accepts: a, Missing: sess},
			&VoteBatch{Votes: advVotes(seed, int(count)%MaxBatchVotes+1)},
			&AggHello{Agg: a, K: sess + 1, Trials: uint32(count), Lo: a >> 1, Hi: a>>1 + 1},
			&PartialVerdict{Agg: a, Entries: advPartialEntries(seed, int(count)%MaxPartialEntries+1)},
		}
		for _, fr := range established {
			for _, ctx := range []TraceContext{{}, tc} {
				want := AppendSession(nil, fr, 0, ctx)
				at := len(want) - sessionBytes
				if !ctx.IsZero() {
					at -= traceContextBytes
				}
				binary.BigEndian.PutUint32(want[at:], sess)
				bound := AppendSession(nil, fr, sess, ctx)
				if !bytes.Equal(bound, want) {
					t.Fatalf("%T: binding to session %d changed more than the session field: %x vs %x", fr, sess, bound, want)
				}
				if got := SessionOf(bound[headerBytes:]); got != sess {
					t.Fatalf("%T: SessionOf = %d, want %d", fr, got, sess)
				}
			}
		}

		report := fuzzReport(sess|1, 1<<31|a, seed, int(count)%MaxReportTrials+1)
		control := []Frame{
			&SessionOpen{Tenant: a, K: sess, Trials: uint32(count), Seed: seed,
				Rule: byte(seed), Thresh: a},
			&SessionAccept{Session: sess | 1, Tenant: a},
			&SessionReject{Tenant: a, Reason: byte(seed)%rejectReasonMax + 1},
			report,
		}
		var sc DecodeScratch
		for _, fr := range control {
			for _, ctx := range []TraceContext{{}, tc} {
				enc := AppendSession(nil, fr, 0, ctx)
				if rebound := AppendSession(nil, fr, sess|1, ctx); !bytes.Equal(rebound, enc) {
					t.Fatalf("%T: the session argument changed a control frame", fr)
				}
				got, gotTC, gotSess, err := DecodeBodySession(enc[headerBytes:], &sc)
				if err != nil || gotSess != 0 || gotTC != ctx || !reflect.DeepEqual(got, fr) {
					t.Fatalf("%T: round trip: got (%#v, %+v, session %d, %v)", fr, got, gotTC, gotSess, err)
				}
				if re := AppendSession(nil, got, 0, gotTC); !bytes.Equal(re, enc) {
					t.Fatalf("%T: re-encode mismatch: %x vs %x", fr, re, enc)
				}
			}
		}

		// The capped report encoder writes the same bytes, within FrameCap.
		enc, err := AppendSessionReport(nil, report, tc)
		if err != nil || !bytes.Equal(enc, AppendSession(nil, report, 0, tc)) {
			t.Fatalf("AppendSessionReport of %d trials: %v", len(report.Verdicts), err)
		}
		if len(enc)-headerBytes > FrameCap(TypeSessionReport) {
			t.Fatalf("report body %d bytes exceeds its cap", len(enc)-headerBytes)
		}
		over := fuzzReport(sess|1, 1<<31|a, seed, MaxReportTrials+1)
		if _, err := AppendSessionReport(nil, over, tc); !errors.Is(err, ErrOversize) {
			t.Fatalf("oversize report: err = %v", err)
		}
	})
}
