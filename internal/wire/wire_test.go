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
		&Sketch{Trial: 12, Node: 5, Samples: 48, Collisions: 2},
		&Done{Node: 42},
		&Verdict{Trials: 60, Accepts: 59, Missing: 3},
	}
}

func TestRoundTripEveryType(t *testing.T) {
	for _, f := range everyFrame() {
		buf := Append(nil, f)
		if len(buf) != EncodedSize(f) {
			t.Errorf("%T: encoded %d bytes, EncodedSize says %d", f, len(buf), EncodedSize(f))
		}
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("%T: decode: %v", f, err)
		}
		if n != len(buf) {
			t.Errorf("%T: consumed %d of %d bytes", f, n, len(buf))
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("round trip: got %#v, want %#v", got, f)
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

func TestDecodeRejectsTruncated(t *testing.T) {
	full := Append(nil, &Vote{Trial: 1, Node: 2, Reject: true})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := Decode(full[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestReaderRejectsMidFrameEOF(t *testing.T) {
	full := Append(nil, &Sketch{Trial: 1, Node: 2, Samples: 3, Collisions: 1})
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
	if _, _, err := Decode(b); !errors.Is(err, ErrOversize) {
		t.Fatalf("err = %v, want ErrOversize", err)
	}
	if _, err := NewReader(bytes.NewReader(b)).ReadFrame(); !errors.Is(err, ErrOversize) {
		t.Fatalf("reader err = %v, want ErrOversize", err)
	}
	// The 64-byte CONGEST-mirror cap still applies to single-vote types:
	// a vote frame padded past MaxFrameBytes is a protocol error even
	// though the stream-level cap now admits larger (batch) frames.
	var v []byte
	v = binary.BigEndian.AppendUint32(v, MaxFrameBytes+1)
	v = append(v, MinVersion, TypeVote)
	v = append(v, make([]byte, MaxFrameBytes-1)...)
	if _, _, err := Decode(v); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("oversize vote err = %v, want ErrFrameSize", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	b := Append(nil, &Done{Node: 1})
	b[4] = Version + 1
	if _, _, err := Decode(b); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestDecodeRejectsUnknownType(t *testing.T) {
	b := Append(nil, &Done{Node: 1})
	b[5] = 0xEE
	if _, _, err := Decode(b); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestDecodeRejectsWrongPayloadSize(t *testing.T) {
	// A Done frame claiming a Hello-sized payload.
	var b []byte
	b = binary.BigEndian.AppendUint32(b, 2+12)
	b = append(b, MinVersion, TypeDone)
	b = append(b, make([]byte, 12)...)
	if _, _, err := Decode(b); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("err = %v, want ErrFrameSize", err)
	}
}

func TestDecodeRejectsBadVoteFlag(t *testing.T) {
	b := Append(nil, &Vote{Trial: 1, Node: 2})
	b[len(b)-1] = 7 // flag byte must be 0 or 1
	if _, _, err := Decode(b); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("err = %v, want ErrFrameSize", err)
	}
}

func TestTracedRoundTripEveryType(t *testing.T) {
	tc := TraceContext{Trace: 0xdeadbeefcafef00d, Span: 0x0123456789abcdef}
	for _, f := range everyFrame() {
		buf := AppendTraced(nil, f, tc)
		if len(buf) != EncodedSizeTraced(f, tc) {
			t.Errorf("%T: encoded %d bytes, EncodedSizeTraced says %d", f, len(buf), EncodedSizeTraced(f, tc))
		}
		if buf[4] != TraceVersion {
			t.Errorf("%T: traced frame stamped version %d, want %d", f, buf[4], TraceVersion)
		}
		got, gotTC, n, err := DecodeTraced(buf)
		if err != nil {
			t.Fatalf("%T: decode traced: %v", f, err)
		}
		if n != len(buf) {
			t.Errorf("%T: consumed %d of %d bytes", f, n, len(buf))
		}
		if gotTC != tc {
			t.Errorf("%T: trace context %+v, want %+v", f, gotTC, tc)
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("round trip: got %#v, want %#v", got, f)
		}
		// The plain decoder must accept the same frame, dropping the context.
		if plain, _, err := Decode(buf); err != nil || !reflect.DeepEqual(plain, f) {
			t.Errorf("Decode(traced) = (%#v, %v)", plain, err)
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
		if err := WriteFrameTraced(&buf, f, tc); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, want := range frames {
		got, tc, err := r.ReadFrameTraced()
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

// TestVersionNegotiation pins the cross-version contract: v1 frames (the
// pre-trace encoding) decode with a zero context, v2 frames require a
// well-formed trace context, and a v-next frame is rejected with ErrVersion
// rather than a panic.
func TestVersionNegotiation(t *testing.T) {
	vote := &Vote{Trial: 3, Node: 9, Reject: true}
	tc := TraceContext{Trace: 77, Span: 88}

	t.Run("v1 accepted without context", func(t *testing.T) {
		b := Append(nil, vote)
		if b[4] != MinVersion {
			t.Fatalf("untraced frame stamped version %d, want %d", b[4], MinVersion)
		}
		f, gotTC, _, err := DecodeTraced(b)
		if err != nil || !gotTC.IsZero() || !reflect.DeepEqual(f, vote) {
			t.Fatalf("DecodeTraced(v1) = (%#v, %+v, %v)", f, gotTC, err)
		}
	})
	t.Run("zero context encodes as v1", func(t *testing.T) {
		if !bytes.Equal(AppendTraced(nil, vote, TraceContext{}), Append(nil, vote)) {
			t.Fatal("AppendTraced with zero context is not byte-identical to Append")
		}
	})
	t.Run("v1 with trailing context bytes rejected", func(t *testing.T) {
		b := AppendTraced(nil, vote, tc)
		b[4] = MinVersion // claim v1 while carrying the 16-byte suffix
		binary.BigEndian.PutUint32(b, uint32(len(b)-headerBytes))
		if _, _, err := Decode(b); !errors.Is(err, ErrFrameSize) {
			t.Fatalf("err = %v, want ErrFrameSize", err)
		}
	})
	t.Run("v2 without context rejected", func(t *testing.T) {
		b := Append(nil, vote)
		b[4] = TraceVersion
		if _, _, err := Decode(b); !errors.Is(err, ErrFrameSize) {
			t.Fatalf("err = %v, want ErrFrameSize", err)
		}
	})
	t.Run("v2 with zero trace ID rejected", func(t *testing.T) {
		b := AppendTraced(nil, vote, tc)
		zero := make([]byte, 8)
		copy(b[len(b)-traceContextBytes:], zero)
		if _, _, err := Decode(b); !errors.Is(err, ErrTraceContext) {
			t.Fatalf("err = %v, want ErrTraceContext", err)
		}
	})
	t.Run("old type at v3 rejected", func(t *testing.T) {
		// Batch framing is v3-only; re-encoding a single-vote type there
		// would give it a second byte representation.
		b := Append(nil, vote)
		b[4] = BatchVersion
		if _, _, err := Decode(b); !errors.Is(err, ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("batch type below v3 rejected", func(t *testing.T) {
		vb := &VoteBatch{Votes: []BatchVote{{Trial: 1, Node: 2, Reject: true}}}
		for _, ver := range []byte{MinVersion, TraceVersion} {
			b := Append(nil, vb)
			b[4] = ver
			if _, _, err := Decode(b); !errors.Is(err, ErrVersion) {
				t.Fatalf("v%d batch err = %v, want ErrVersion", ver, err)
			}
		}
	})
	t.Run("v-next rejected gracefully", func(t *testing.T) {
		for _, base := range [][]byte{Append(nil, vote), AppendTraced(nil, vote, tc)} {
			b := append([]byte(nil), base...)
			b[4] = Version + 1
			if _, _, err := Decode(b); !errors.Is(err, ErrVersion) {
				t.Fatalf("Decode err = %v, want ErrVersion", err)
			}
			if _, err := NewReader(bytes.NewReader(b)).ReadFrame(); !errors.Is(err, ErrVersion) {
				t.Fatalf("Reader err = %v, want ErrVersion", err)
			}
		}
	})
}

func TestDecodeConsumesOneFrameOfMany(t *testing.T) {
	first := Append(nil, &Vote{Trial: 9, Node: 1, Reject: true})
	b := Append(append([]byte(nil), first...), &Done{Node: 1})
	f, n, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(first) {
		t.Fatalf("consumed %d, want %d", n, len(first))
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

// goldenPartial is a 2048-entry sketch-mode partial whose samples column
// takes wrapping uint64 deltas.
func goldenPartial() *PartialVerdict {
	p := &PartialVerdict{Agg: 3, Sketch: true, Entries: make([]PartialEntry, MaxPartialEntries)}
	for i := range p.Entries {
		votes := uint32(32 - i%5)
		p.Entries[i] = PartialEntry{Trial: uint32(2 * i), Votes: votes, Rejects: uint32(i%7) % (votes + 1),
			Samples: uint64(i) * 0x9e3779b97f4a7c15, Collisions: uint64(i % 4)}
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
// batch, a session-bound traced sketch-mode partial, and a full-size
// report, each compared by length and SHA-256.
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
		{"partial", partial, 28696, "9e71c9f17a95dd7ae4a14ce1c674137781aad45874f75b4626e64423fb08e224"},
		{"report", report, 25616, "34f34a87dbe9c058da971155ee1a6b80aa83f7990afe787dc158c27722cea0b2"},
	} {
		sum := sha256.Sum256(c.enc)
		if got := hex.EncodeToString(sum[:]); len(c.enc) != c.size || got != c.hash {
			t.Errorf("%s: %d bytes sha256 %s, want %d bytes %s", c.name, len(c.enc), got, c.size, c.hash)
		}
	}
}
