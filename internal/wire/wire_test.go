package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"
)

// everyFrame returns one instance of each frame type with distinctive
// field values.
func everyFrame() []Frame {
	return []Frame{
		&Hello{Node: 7, K: 2000, Trials: 60},
		&Vote{Trial: 3, Node: 1999, Reject: true},
		&Vote{Trial: 0, Node: 0, Reject: false},
		&Done{Node: 42},
		&Verdict{Trials: 60, Accepts: 59, Missing: 3},
	}
}

// decodeFrame decodes one encoded frame, checking that its length prefix
// covers exactly the rest of b.
func decodeFrame(t *testing.T, b []byte) (Frame, TraceContext, uint32) {
	t.Helper()
	if n := binary.BigEndian.Uint32(b); int(n) != len(b)-headerBytes {
		t.Fatalf("length prefix %d, body %d bytes", n, len(b)-headerBytes)
	}
	f, tc, sess, err := DecodeBodySession(b[headerBytes:], nil)
	if err != nil {
		t.Fatalf("decode %x: %v", b, err)
	}
	return f, tc, sess
}

func TestRoundTripEveryType(t *testing.T) {
	for _, f := range everyFrame() {
		buf := AppendSession(nil, f, 0, TraceContext{})
		if want := headerBytes + 2 + f.(fixedFrame).payloadSize() + sessionBytes; len(buf) != want {
			t.Errorf("%T: encoded %d bytes, want %d", f, len(buf), want)
		}
		got, tc, sess := decodeFrame(t, buf)
		if !tc.IsZero() || sess != 0 || !reflect.DeepEqual(got, f) {
			t.Errorf("round trip: got (%#v, %+v, session %d), want %#v", got, tc, sess, f)
		}
	}
}

func TestReaderStream(t *testing.T) {
	frames := everyFrame()
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, want := range frames {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d: got %#v, want %#v", i, got, want)
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestDecodeRejectsTruncated pins that a body cut short never decodes: the
// Reader reports a cut inside a frame as ErrTruncated, and a body shorter
// than its type's layout fails with ErrFrameSize.
func TestDecodeRejectsTruncated(t *testing.T) {
	body := AppendSession(nil, &Vote{Trial: 1, Node: 2, Reject: true}, 7, TraceContext{})[headerBytes:]
	for cut := 0; cut < len(body); cut++ {
		if _, _, _, err := DecodeBodySession(body[:cut], nil); !errors.Is(err, ErrFrameSize) {
			t.Fatalf("cut at %d: err = %v, want ErrFrameSize", cut, err)
		}
	}
}

func TestReaderRejectsMidFrameEOF(t *testing.T) {
	full := AppendSession(nil, &Hello{Node: 1, K: 2, Trials: 3}, 0, TraceContext{})
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		if _, err := r.ReadFrame(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestDecodeRejectsOversize(t *testing.T) {
	// The stream-level cap is the batch frame limit.
	var b []byte
	b = binary.BigEndian.AppendUint32(b, MaxBatchFrameBytes+1)
	b = append(b, make([]byte, MaxBatchFrameBytes+1)...)
	if _, err := NewReader(bytes.NewReader(b)).ReadFrame(); !errors.Is(err, ErrOversize) {
		t.Fatalf("reader err = %v, want ErrOversize", err)
	}
	// The 64-byte CONGEST-mirror cap still applies to single-vote types:
	// a vote frame padded past MaxFrameBytes is a protocol error even
	// though the stream-level cap admits larger (batch) frames.
	v := append([]byte{Version, TypeVote}, make([]byte, MaxFrameBytes-1)...)
	if _, _, _, err := DecodeBodySession(v, nil); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize vote err = %v, want ErrOversize", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	b := AppendSession(nil, &Done{Node: 1}, 0, TraceContext{})[headerBytes:]
	b[0] = Version + 1
	if _, _, _, err := DecodeBodySession(b, nil); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// TestDecodeRejectsUnknownType pins that an unassigned type byte never
// decodes — including the retired bytes 3 and 7, traced or not, under an
// established (Done) and a control (SessionReport) body, and byte 3 under
// a body laid out as its retired frame was: a 16-byte payload and the
// session field, then, traced, the trace suffix.
func TestDecodeRejectsUnknownType(t *testing.T) {
	done := AppendSession(nil, &Done{Node: 1}, 0, TraceContext{})[headerBytes:]
	report := AppendSession(nil, &SessionReport{Session: 3, K: 4, Verdicts: []bool{true},
		Rejects: []uint32{0}, Votes: []uint32{4}, Missing: []uint32{0}}, 0, TraceContext{})[headerBytes:]
	retired3 := append([]byte{Version, 0}, make([]byte, 16+sessionBytes)...)
	traced3 := append(append([]byte(nil), retired3...), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1)
	for _, c := range []struct {
		name string
		body []byte
		typ  byte
	}{
		{"done as 0xee", done, 0xEE},
		{"done as 3", done, typeRetiredSketch},
		{"done as traced 3", done, typeRetiredSketch | traceFlag},
		{"16-byte payload as 3", retired3, typeRetiredSketch},
		{"16-byte payload as traced 3", traced3, typeRetiredSketch | traceFlag},
		{"done as 7", done, typeRetiredBatch},
		{"done as traced 7", done, typeRetiredBatch | traceFlag},
		{"report as 7", report, typeRetiredBatch},
		{"report as traced 7", report, typeRetiredBatch | traceFlag},
	} {
		b := append([]byte(nil), c.body...)
		b[1] = c.typ
		if _, _, _, err := DecodeBodySession(b, nil); !errors.Is(err, ErrUnknownType) {
			t.Errorf("%s: err = %v, want ErrUnknownType", c.name, err)
		}
	}
}

func TestDecodeRejectsWrongPayloadSize(t *testing.T) {
	// A Done frame claiming a Hello-sized payload, then its session field.
	b := append([]byte{Version, TypeDone}, make([]byte, 12+sessionBytes)...)
	if _, _, _, err := DecodeBodySession(b, nil); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("err = %v, want ErrFrameSize", err)
	}
}

func TestDecodeRejectsBadVoteFlag(t *testing.T) {
	b := AppendSession(nil, &Vote{Trial: 1, Node: 2}, 0, TraceContext{})[headerBytes:]
	b[len(b)-1-sessionBytes] = 7 // flag byte must be 0 or 1
	if _, _, _, err := DecodeBodySession(b, nil); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("err = %v, want ErrFrameSize", err)
	}
}

func TestTracedRoundTripEveryType(t *testing.T) {
	tc := TraceContext{Trace: 0xdeadbeefcafef00d, Span: 0x0123456789abcdef}
	for _, f := range everyFrame() {
		buf := AppendSession(nil, f, 0, tc)
		if want := len(AppendSession(nil, f, 0, TraceContext{})) + traceContextBytes; len(buf) != want {
			t.Errorf("%T: traced frame %d bytes, want %d", f, len(buf), want)
		}
		got, gotTC, _ := decodeFrame(t, buf)
		if gotTC != tc {
			t.Errorf("%T: trace context %+v, want %+v", f, gotTC, tc)
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("round trip: got %#v, want %#v", got, f)
		}
	}
}

func TestTracedReaderStream(t *testing.T) {
	frames := everyFrame()
	var buf bytes.Buffer
	for i, f := range frames {
		// Alternate traced and untraced frames in one stream.
		tc := TraceContext{}
		if i%2 == 0 {
			tc = TraceContext{Trace: uint64(i) + 1, Span: uint64(i) * 7}
		}
		buf.Write(AppendSession(nil, f, 0, tc))
	}
	r := NewReader(&buf)
	for i, want := range frames {
		body, err := r.ReadBody()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, tc, _, err := DecodeBodySession(body, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d: got %#v, want %#v", i, got, want)
		}
		if i%2 == 0 && tc.Trace != uint64(i)+1 {
			t.Errorf("frame %d: trace %d, want %d", i, tc.Trace, i+1)
		}
		if i%2 == 1 && !tc.IsZero() {
			t.Errorf("frame %d: unexpected trace context %+v", i, tc)
		}
	}
}

// TestFrameLayout pins the one frame layout on all 11 types × session
// {0, 7} × trace {off, on}: every frame round-trips byte-identically; the
// routing peeks BodyType and SessionOf agree with the full decode; the
// session field is fixed (established types carry it even at session 0,
// control types never); every version byte but Version fails with
// ErrVersion; a zero trace ID fails with ErrTraceContext, and a
// fixed-size frame whose trace flag disagrees with its suffix fails with
// ErrFrameSize; an established-type body too short for its session field
// fails with ErrFrameSize; and every frame fits its FrameCap — the
// single-vote frame, a traced session-bound Vote, at 31 bytes.
func TestFrameLayout(t *testing.T) {
	cases := []struct {
		typ byte // the type byte on the wire, trace flag clear
		f   Frame
	}{
		{TypeHello, &Hello{Node: 3, K: 100, Trials: 7}},
		{TypeVote, &Vote{Trial: 2, Node: 3, Reject: true}},
		{TypeDone, &Done{Node: 3}},
		{TypeVerdict, &Verdict{Trials: 7, Accepts: 5, Missing: 1}},
		{TypeVoteBatch, &VoteBatch{Votes: seqVotes(3, 2)}},
		{TypeAggHello, &AggHello{Agg: 2, K: 100, Trials: 7, Lo: 10, Hi: 20}},
		{TypePartialVerdict, &PartialVerdict{Agg: 2, Entries: []PartialEntry{{Trial: 0, Votes: 10, Rejects: 4}}}},
		{TypeSessionOpen, &SessionOpen{Tenant: 5, K: 100, Trials: 7, Seed: 99, Rule: RuleThreshold, Thresh: 11}},
		{TypeSessionAccept, &SessionAccept{Session: 12, Tenant: 5}},
		{TypeSessionReject, &SessionReject{Tenant: 5, Reason: RejectBudget}},
		{TypeSessionReport, &SessionReport{Session: 12, K: 10, Verdicts: []bool{true, false, true},
			Rejects: []uint32{0, 4, 1}, Votes: []uint32{10, 9, 10}, Missing: []uint32{0, 1, 0}}},
	}
	var sc DecodeScratch
	for _, c := range cases {
		name := TypeName(c.typ)
		for _, tc := range []TraceContext{{}, {Trace: 9, Span: 4}} {
			wantType := c.typ
			if !tc.IsZero() {
				wantType |= traceFlag
			}
			unbound := len(AppendSession(nil, c.f, 0, tc))
			for _, session := range []uint32{0, 7} {
				enc := AppendSession(nil, c.f, session, tc)
				body := enc[headerBytes:]
				if len(enc) != unbound {
					t.Errorf("%s session %d: %d bytes, %d at session 0", name, session, len(enc), unbound)
				}
				if body[0] != Version || body[1] != wantType {
					t.Errorf("%s: header %x", name, body[:2])
				}
				got, gotTC, gotSess, err := DecodeBodySession(body, &sc)
				if err != nil {
					t.Fatalf("%s session %d tc %+v: %v", name, session, tc, err)
				}
				wantSess := session
				if !hasSessionField(c.typ) {
					wantSess = 0
				}
				if gotSess != wantSess || gotTC != tc || !sameFrame(got, c.f) {
					t.Fatalf("%s: decoded (%#v, %+v, session %d)", name, got, gotTC, gotSess)
				}
				if re := AppendSession(nil, got, gotSess, gotTC); !bytes.Equal(re, enc) {
					t.Fatalf("%s: re-encode mismatch:\n%x\n%x", name, re, enc)
				}
				if BodyType(body) != got.Type() || SessionOf(body) != gotSess {
					t.Errorf("%s: peeks (type %d, session %d), decode (type %d, session %d)",
						name, BodyType(body), SessionOf(body), got.Type(), gotSess)
				}
				if len(body) > FrameCap(c.typ) {
					t.Errorf("%s: %d-byte body over its %d-byte cap", name, len(body), FrameCap(c.typ))
				}
				for _, v := range []byte{1, 2, 3, 4, 6} {
					bad := append([]byte(nil), body...)
					bad[0] = v
					if _, _, _, err := DecodeBodySession(bad, nil); !errors.Is(err, ErrVersion) {
						t.Errorf("%s at version %d: err = %v, want ErrVersion", name, v, err)
					}
				}
				if !tc.IsZero() {
					bad := append([]byte(nil), body...)
					copy(bad[len(bad)-traceContextBytes:], make([]byte, 8))
					if _, _, _, err := DecodeBodySession(bad, nil); !errors.Is(err, ErrTraceContext) {
						t.Errorf("%s with a zero trace ID: err = %v, want ErrTraceContext", name, err)
					}
				}
				if FrameCap(c.typ) == MaxFrameBytes {
					// A fixed-size frame whose trace flag disagrees with its
					// suffix is mis-sized.
					bad := append([]byte(nil), body...)
					bad[1] ^= traceFlag
					if _, _, _, err := DecodeBodySession(bad, nil); !errors.Is(err, ErrFrameSize) {
						t.Errorf("%s with its trace flag flipped: err = %v, want ErrFrameSize", name, err)
					}
				}
			}
		}
		if hasSessionField(c.typ) {
			for n := 0; n < sessionBytes; n++ {
				short := append([]byte{Version, c.typ}, make([]byte, n)...)
				if _, _, _, err := DecodeBodySession(short, nil); !errors.Is(err, ErrFrameSize) {
					t.Errorf("%s with a %d-byte session field: err = %v, want ErrFrameSize", name, n, err)
				}
			}
		}
	}
	vote := AppendSession(nil, &Vote{Trial: 1, Node: 2, Reject: true}, 7, TraceContext{Trace: 1, Span: 1})
	if n := len(vote) - headerBytes; n != 31 || n > MaxFrameBytes {
		t.Errorf("traced session-bound vote body %d bytes, want 31 ≤ MaxFrameBytes", n)
	}
}

// TestDecodeConsumesOneFrameOfMany pins that the Reader consumes exactly
// one frame per read, so the underlying stream can change hands between
// frames without losing bytes.
func TestDecodeConsumesOneFrameOfMany(t *testing.T) {
	first := AppendSession(nil, &Vote{Trial: 9, Node: 1, Reject: true}, 0, TraceContext{})
	second := AppendSession(nil, &Done{Node: 1}, 0, TraceContext{})
	src := bytes.NewReader(append(append([]byte(nil), first...), second...))
	f, err := NewReader(src).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != len(second) {
		t.Fatalf("%d bytes left unread, want %d", src.Len(), len(second))
	}
	if v, ok := f.(*Vote); !ok || v.Trial != 9 {
		t.Fatalf("first frame = %#v", f)
	}
}

// goldenBatch is a 1024-vote batch mixing one-, two- and three-byte trial
// entries and a node column that jumps to a five-byte value and back.
func goldenBatch() *VoteBatch {
	b := &VoteBatch{Votes: make([]BatchVote, 1024)}
	trial := uint32(70000)
	for i := range b.Votes {
		switch {
		case i%97 == 0:
			trial += 300
		case i%89 == 0:
			trial -= 5
		default:
			trial++
		}
		node := uint32(1234)
		if i%256 == 255 {
			node = 1 << 31
		}
		b.Votes[i] = BatchVote{Trial: trial, Node: node, Reject: i*7%5 == 0}
	}
	return b
}

// goldenPartial is a 2048-entry partial over every other trial.
func goldenPartial() *PartialVerdict {
	p := &PartialVerdict{Agg: 3, Entries: make([]PartialEntry, MaxPartialEntries)}
	for i := range p.Entries {
		votes := uint32(32 - i%5)
		p.Entries[i] = PartialEntry{Trial: uint32(2 * i), Votes: votes, Rejects: uint32(i%7) % (votes + 1)}
	}
	return p
}

// goldenReport is an 8192-trial session report.
func goldenReport() *SessionReport {
	n := MaxReportTrials
	r := &SessionReport{Session: 5, K: 64, Verdicts: make([]bool, n),
		Rejects: make([]uint32, n), Votes: make([]uint32, n), Missing: make([]uint32, n)}
	for i := 0; i < n; i++ {
		r.Verdicts[i] = i%3 != 0
		r.Votes[i] = uint32(64 - i%4)
		r.Rejects[i] = uint32(i % 11)
		r.Missing[i] = uint32(i % 4)
	}
	return r
}

// TestEncodersMatchGoldenBytes pins the columnar encoders to bytes
// recorded before they wrote frames in one pass: a session-bound traced
// batch, a session-bound traced partial, and a full-size report, each
// compared by length and SHA-256.
func TestEncodersMatchGoldenBytes(t *testing.T) {
	tc := TraceContext{Trace: 0xfeed, Span: 0xbead}
	var e BatchEncoder
	batch, err := e.AppendSession(nil, goldenBatch(), 9, tc, false)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := AppendPartialSession(nil, goldenPartial(), 9, tc)
	if err != nil {
		t.Fatal(err)
	}
	report, err := AppendSessionReport(nil, goldenReport(), TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		enc  []byte
		size int
		hash string
	}{
		{"batch", batch, 2246, "eefe6f90047068f8bd32c2f9f94e1e6fa8052f4e42cf2461eb433c07e5f416e6"},
		{"partial", partial, 6177, "25186d58b1569e6912b5bec1524efa9142430be2c9f9a83c54c7a4fc5badde5d"},
		{"report", report, 25616, "34f34a87dbe9c058da971155ee1a6b80aa83f7990afe787dc158c27722cea0b2"},
	} {
		sum := sha256.Sum256(c.enc)
		if got := hex.EncodeToString(sum[:]); len(c.enc) != c.size || got != c.hash {
			t.Errorf("%s: %d bytes sha256 %s, want %d bytes %s", c.name, len(c.enc), got, c.size, c.hash)
		}
	}
}
