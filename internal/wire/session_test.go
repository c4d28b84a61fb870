package wire

import (
	"bytes"
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
		&Sketch{Trial: 1, Node: 4, Samples: 48, Collisions: 2},
		&Done{Node: 3},
		&Verdict{Trials: 7, Accepts: 5, Missing: 1},
		&VoteBatch{Votes: []BatchVote{{Trial: 0, Node: 3}, {Trial: 1, Node: 3, Reject: true}}},
		&AggHello{Agg: 2, K: 100, Trials: 7, Lo: 10, Hi: 20},
		&PartialVerdict{Agg: 2, Entries: []PartialEntry{{Trial: 0, Votes: 10, Rejects: 4}}},
	}
}

// TestSessionZeroByteIdentical pins the interop invariant: binding a frame
// to session 0 is a no-op on the wire — byte-identical to the v4-and-below
// encoding — so session-unaware peers keep working against a v5 service.
func TestSessionZeroByteIdentical(t *testing.T) {
	tcs := []TraceContext{{}, {Trace: 9, Span: 4}}
	for _, fr := range sessionTestFrames() {
		for _, tc := range tcs {
			classic := AppendTraced(nil, fr, tc)
			bound := AppendSession(nil, fr, 0, tc)
			if !bytes.Equal(classic, bound) {
				t.Errorf("%T: session-0 encoding differs: %x vs %x", fr, bound, classic)
			}
			if n := EncodedSizeSession(fr, 0, tc); n != len(bound) {
				t.Errorf("%T: EncodedSizeSession(0) = %d, want %d", fr, n, len(bound))
			}
		}
	}
}

// TestSessionSuffixRoundTrip pins the nonzero-session path: every
// established type round-trips through the v5 suffix encoding with the
// session ID intact and decode∘encode the identity.
func TestSessionSuffixRoundTrip(t *testing.T) {
	tcs := []TraceContext{{}, {Trace: 9, Span: 4}}
	var sc DecodeScratch
	for _, fr := range sessionTestFrames() {
		for _, tc := range tcs {
			for _, sess := range []uint32{1, 7, 1 << 30} {
				enc := AppendSession(nil, fr, sess, tc)
				if enc[4] != SessionVersion {
					t.Fatalf("%T: session frame stamped v%d", fr, enc[4])
				}
				if n := EncodedSizeSession(fr, sess, tc); n != len(enc) {
					t.Errorf("%T: EncodedSizeSession = %d, want %d", fr, n, len(enc))
				}
				got, gotTC, gotSess, err := DecodeBodySession(enc[4:], &sc)
				if err != nil {
					t.Fatalf("%T: decode own session encoding: %v", fr, err)
				}
				if gotSess != sess || gotTC != tc {
					t.Fatalf("%T: got (session %d, %+v), want (%d, %+v)", fr, gotSess, gotTC, sess, tc)
				}
				if !framesEqual(got, fr) {
					t.Fatalf("%T: session round trip: got %#v", fr, got)
				}
				if re := AppendSession(nil, got, gotSess, gotTC); !bytes.Equal(re, enc) {
					t.Fatalf("%T: session re-encode mismatch: %x vs %x", fr, re, enc)
				}
				// The session-unaware decode path accepts the frame too,
				// dropping the session like Decode drops the trace.
				plain, plainTC, _, err := DecodeTraced(enc)
				if err != nil || plainTC != tc || !framesEqual(plain, fr) {
					t.Fatalf("%T: session-unaware decode: %v", fr, err)
				}
			}
		}
	}
}

// framesEqual compares two decoded frames, ignoring the decoder-output
// Compressed/Saved fields of a VoteBatch.
func framesEqual(got, want Frame) bool {
	if gb, ok := got.(*VoteBatch); ok {
		wb, ok := want.(*VoteBatch)
		return ok && gb.Sketch == wb.Sketch && reflect.DeepEqual(gb.Votes, wb.Votes)
	}
	return reflect.DeepEqual(got, want)
}

// TestSessionZeroSuffixRejected pins canonicality: an explicit zero
// session at v5 is rejected (session 0's unique encoding is the classic
// version), so every (frame, session) pair has exactly one byte form.
func TestSessionZeroSuffixRejected(t *testing.T) {
	enc := AppendSession(nil, &Vote{Trial: 1, Node: 2}, 7, TraceContext{})
	body := append([]byte(nil), enc[4:]...)
	// Overwrite the trailing session suffix with zero.
	for i := len(body) - sessionBytes; i < len(body); i++ {
		body[i] = 0
	}
	if _, _, _, err := DecodeBodySession(body, nil); !errors.Is(err, ErrSession) {
		t.Fatalf("zero session suffix: err = %v, want ErrSession", err)
	}
}

// TestSessionControlRoundTrip pins the codec of the four session control
// frames, traced and untraced.
func TestSessionControlRoundTrip(t *testing.T) {
	frames := []Frame{
		&SessionOpen{Tenant: 5, K: 100, Trials: 7, Seed: 99, Rule: RuleThreshold, Thresh: 11, Sketch: true, EarlyClose: true},
		&SessionOpen{Tenant: 1, K: 10, Trials: 2, Seed: 3, Rule: RuleAND, Default: true},
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
			enc := AppendTraced(nil, fr, tc)
			if enc[4] != SessionVersion {
				t.Fatalf("%T: control frame stamped v%d", fr, enc[4])
			}
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
			if re := AppendTraced(nil, got, gotTC); !bytes.Equal(re, enc) {
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
// frames: out-of-range reject reasons, zero accept sessions, spare open
// flags, and control types at pre-session versions.
func TestSessionControlValidation(t *testing.T) {
	if _, _, _, err := DecodeBodySession(AppendTraced(nil, &SessionReject{Tenant: 1, Reason: 99}, TraceContext{})[4:], nil); !errors.Is(err, ErrFrameSize) {
		t.Errorf("reason 99: err = %v, want ErrFrameSize", err)
	}
	if _, _, _, err := DecodeBodySession(AppendTraced(nil, &SessionAccept{Session: 0, Tenant: 1}, TraceContext{})[4:], nil); !errors.Is(err, ErrSession) {
		t.Errorf("accept session 0: err = %v, want ErrSession", err)
	}
	open := AppendTraced(nil, &SessionOpen{Tenant: 1, K: 2, Trials: 3, Rule: RuleAND}, TraceContext{})
	body := append([]byte(nil), open[4:]...)
	body[len(body)-1] |= 0x80 // spare flag bit
	if _, _, _, err := DecodeBodySession(body, nil); !errors.Is(err, ErrFrameSize) {
		t.Errorf("spare open flags: err = %v, want ErrFrameSize", err)
	}
	// Control types are only legal at v5.
	for _, v := range []byte{MinVersion, TraceVersion, BatchVersion, PartialVersion} {
		bad := append([]byte(nil), open[4:]...)
		bad[0] = v
		if _, _, _, err := DecodeBodySession(bad, nil); !errors.Is(err, ErrVersion) {
			t.Errorf("sessionopen at v%d: err = %v, want ErrVersion", v, err)
		}
	}
	// Established types stay illegal at v5 without a session suffix only
	// when the remaining payload is mis-sized; a well-formed suffix is
	// what makes them legal — a bare v5 vote body must fail.
	vote := Append(nil, &Vote{Trial: 1, Node: 2})
	bare := append([]byte(nil), vote[4:]...)
	bare[0] = SessionVersion
	if _, _, _, err := DecodeBodySession(bare, nil); !errors.Is(err, ErrFrameSize) {
		t.Errorf("bare v5 vote: err = %v, want ErrFrameSize", err)
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
	enc := AppendTraced(nil, bad, TraceContext{})
	if _, _, _, err := DecodeBodySession(enc[4:], nil); !errors.Is(err, ErrFrameSize) {
		t.Errorf("rejects > votes: err = %v, want ErrFrameSize", err)
	}
	bad = mk(2)
	bad.Missing[0] = 1 // votes already 100 of k=100
	enc = AppendTraced(nil, bad, TraceContext{})
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
		body := append([]byte{SessionVersion, TypeSessionReport, 0, 0, 0, 1, 0, 0, 0, 100, 2, 0}, c.cols...)
		if _, _, _, err := DecodeBodySession(body, nil); !errors.Is(err, ErrFrameSize) {
			t.Errorf("%s: err = %v, want ErrFrameSize", c.name, err)
		}
	}
	// A zero-session report is invalid.
	bad = mk(1)
	bad.Session = 0
	enc = AppendTraced(nil, bad, TraceContext{})
	if _, _, _, err := DecodeBodySession(enc[4:], nil); !errors.Is(err, ErrSession) {
		t.Errorf("session-0 report: err = %v, want ErrSession", err)
	}
}

// TestSessionBatchAndPartialCaps pins the session-bound encoders' tighter
// payload bounds (the 4-byte suffix must still fit the frame cap).
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
	// Session 0 delegates to the classic encoders byte-for-byte.
	b := &VoteBatch{Votes: []BatchVote{{Trial: 0, Node: 1}}}
	classic, err := AppendBatch(nil, b, TraceContext{}, true)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := e.AppendSession(nil, b, 0, TraceContext{}, true)
	if err != nil || !bytes.Equal(classic, bound) {
		t.Errorf("session-0 batch differs: %v", err)
	}
}

// FuzzSessionFrameRoundTrip drives the v5 session codec from both ends:
// fuzzed frames of every kind — established types bound to zero and
// nonzero sessions, control frames, traced and untraced — must round-trip
// losslessly with decode∘encode byte identity (session 0 byte-identical to
// the classic encoding), and fuzzed raw bytes framed as v5 bodies must
// decode canonically or fail with typed errors — never panic — with the
// size caps enforced.
func FuzzSessionFrameRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint64(0), uint16(1), false, []byte{})
	f.Add(uint32(7), uint32(3), uint64(9), uint16(64), true, []byte{0, 1, 2})
	f.Add(uint32(1<<31), uint32(1), uint64(1<<40), uint16(100), false,
		AppendSession(nil, &Vote{Trial: 1, Node: 2, Reject: true}, 3, TraceContext{})[4:])
	f.Add(uint32(5), uint32(2), uint64(11), uint16(4096), true, []byte{2, 9, 0, 0, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, sess, a uint32, seed uint64, count uint16, flag bool, raw []byte) {
		n := int(count)%MaxReportTrials + 1
		report := &SessionReport{Session: sess | 1, K: 1<<31 | a,
			Verdicts: make([]bool, n), Rejects: make([]uint32, n),
			Votes: make([]uint32, n), Missing: make([]uint32, n)}
		s := seed
		for i := 0; i < n; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			report.Votes[i] = uint32(s) % (report.K + 1)
			report.Rejects[i] = uint32(s>>16) % (report.Votes[i] + 1)
			report.Missing[i] = uint32(s>>32) % (report.K - report.Votes[i] + 1)
			report.Verdicts[i] = s>>63 == 1
		}
		frames := []Frame{
			&Hello{Node: a, K: a + 1, Trials: uint32(count)},
			&Vote{Trial: a, Node: sess, Reject: flag},
			&Sketch{Trial: a, Node: sess, Samples: uint32(seed), Collisions: uint32(seed >> 32)},
			&Done{Node: a},
			&Verdict{Trials: uint32(count), Accepts: a, Missing: sess},
			&AggHello{Agg: a, K: sess + 1, Trials: uint32(count), Lo: a, Hi: a + 1},
			&PartialVerdict{Agg: a, Sketch: flag, Entries: advPartialEntries(seed, int(count)%MaxPartialEntries+1, flag)},
			&SessionOpen{Tenant: a, K: sess, Trials: uint32(count), Seed: seed,
				Rule: byte(seed), Thresh: a, Sketch: flag, Default: seed%2 == 0, EarlyClose: seed%3 == 0},
			&SessionAccept{Session: sess | 1, Tenant: a},
			&SessionReject{Tenant: a, Reason: byte(seed)%rejectReasonMax + 1},
			report,
		}
		tc := TraceContext{Trace: seed | 1, Span: seed >> 3}
		var sc DecodeScratch
		for _, fr := range frames {
			for _, ctx := range []TraceContext{{}, tc} {
				for _, session := range []uint32{0, sess | 1} {
					enc := AppendSession(nil, fr, session, ctx)
					if len(enc)-4 > FrameCap(fr.Type()) {
						t.Fatalf("%T: frame body %d bytes exceeds cap", fr, len(enc)-4)
					}
					got, gotTC, gotSess, err := DecodeBodySession(enc[4:], &sc)
					if err != nil {
						t.Fatalf("%T: decode own encoding (session %d): %v", fr, session, err)
					}
					wantSess := session
					if fr.Type() >= TypeSessionOpen {
						wantSess = 0 // control frames never take the suffix
					}
					if gotSess != wantSess || gotTC != ctx || !framesEqual(got, fr) {
						t.Fatalf("%T: session round trip mismatch (session %d→%d)", fr, session, gotSess)
					}
					// The routing peeks agree with the full decode on every
					// valid encoding.
					if SessionOf(enc[4:]) != wantSess {
						t.Fatalf("%T: SessionOf peek = %d, want %d", fr, SessionOf(enc[4:]), wantSess)
					}
					if BodyType(enc[4:]) != fr.Type() {
						t.Fatalf("%T: BodyType peek = %d, want %d", fr, BodyType(enc[4:]), fr.Type())
					}
					// Decode∘encode is the identity: the codec is bijective.
					if re := AppendSession(nil, got, gotSess, gotTC); !bytes.Equal(re, enc) {
						t.Fatalf("%T: re-encode mismatch: %x vs %x", fr, re, enc)
					}
					if session == 0 && fr.Type() < TypeSessionOpen {
						// Session 0 must be byte-identical to the classic
						// pre-session encoding.
						if classic := AppendTraced(nil, fr, ctx); !bytes.Equal(classic, enc) {
							t.Fatalf("%T: session-0 not byte-identical to v4-and-below", fr)
						}
					}
				}
			}
		}
		// Cap enforcement survives fuzzing.
		over := &SessionReport{Session: 1, K: 1, Verdicts: make([]bool, MaxReportTrials+1),
			Rejects: make([]uint32, MaxReportTrials+1), Votes: make([]uint32, MaxReportTrials+1),
			Missing: make([]uint32, MaxReportTrials+1)}
		if _, err := AppendSessionReport(nil, over, TraceContext{}); !errors.Is(err, ErrOversize) {
			t.Fatalf("oversize report: err = %v", err)
		}

		// Adversarial path: raw bytes framed as v5 bodies — suffixed
		// established types, control types, traced variants, and whatever
		// type byte the fuzzer cooks up — must decode canonically or fail
		// with a typed error.
		types := []byte{TypeVote, TypeVote | 0x80, TypeVoteBatch, TypeHello,
			TypeSessionOpen, TypeSessionReport, TypeSessionReport | 0x80, byte(seed)}
		for _, typ := range types {
			body := append([]byte{SessionVersion, typ}, raw...)
			if len(body) > MaxBatchFrameBytes {
				body = body[:MaxBatchFrameBytes]
			}
			fr, ftc, fsess, err := DecodeBodySession(body, &sc)
			if err == nil {
				if vb, ok := fr.(*VoteBatch); ok && vb.Compressed {
					// Any valid compressor output is accepted; equality is
					// semantic (see FuzzWireRoundTrip).
					continue
				}
				re := AppendSession(nil, fr, fsess, ftc)
				if !bytes.Equal(re[4:], body) {
					t.Fatalf("adversarial %s not canonical: %x vs %x", TypeName(typ&^0x80), re[4:], body)
				}
				continue
			}
			for _, known := range []error{ErrTruncated, ErrOversize, ErrVersion, ErrUnknownType, ErrFrameSize, ErrTraceContext, ErrSession, ErrCompression} {
				if errors.Is(err, known) {
					err = nil
					break
				}
			}
			if err != nil {
				t.Fatalf("unexpected error class: %v", err)
			}
		}
	})
}
