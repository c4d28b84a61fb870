package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

func samplePartial() *PartialVerdict {
	return &PartialVerdict{
		Agg: 3,
		Entries: []PartialEntry{
			{Trial: 0, Votes: 32, Rejects: 4},
			{Trial: 1, Votes: 32, Rejects: 0},
			{Trial: 5, Votes: 7, Rejects: 7},
			// Trial deltas +63, -63 (one-byte zigzag), +64 (two bytes) and
			// -64 (one byte); the votes column then alternates five-byte
			// and one-byte entries.
			{Trial: 68, Votes: 1, Rejects: 1},
			{Trial: 5, Votes: 4000000000, Rejects: 1},
			{Trial: 69, Votes: 4000000001, Rejects: 0},
			{Trial: 5, Votes: 2, Rejects: 2},
			{Trial: 6, Votes: 3, Rejects: 0},
			{Trial: 7, Votes: 4000000000, Rejects: 3},
		},
	}
}

func TestPartialVerdictRoundTrip(t *testing.T) {
	for _, tc := range []TraceContext{{}, {Trace: 9, Span: 11}} {
		p := samplePartial()
		enc, err := AppendPartialSession(nil, p, 0, tc)
		if err != nil {
			t.Fatal(err)
		}
		got, gotTC, _ := decodeFrame(t, enc)
		if gotTC != tc {
			t.Fatalf("tc %+v, want %+v", gotTC, tc)
		}
		pv, ok := got.(*PartialVerdict)
		if !ok || !reflect.DeepEqual(pv, p) {
			t.Fatalf("round trip: got %#v, want %#v", got, p)
		}
		// Canonical bytes: re-encoding the decoded frame is identical.
		if re := AppendSession(nil, pv, 0, tc); !bytes.Equal(re, enc) {
			t.Fatalf("re-encode mismatch:\n%x\n%x", re, enc)
		}
	}
}

func TestAggHelloRoundTrip(t *testing.T) {
	h := &AggHello{Agg: 2, K: 100, Trials: 16, Lo: 25, Hi: 50}
	for _, tc := range []TraceContext{{}, {Trace: 5, Span: 6}} {
		enc := AppendSession(nil, h, 0, tc)
		if len(enc)-4 > MaxFrameBytes {
			t.Fatalf("agghello body %d bytes exceeds MaxFrameBytes", len(enc)-4)
		}
		got, gotTC, _ := decodeFrame(t, enc)
		if gotTC != tc || !reflect.DeepEqual(got, h) {
			t.Fatalf("round trip: got %#v tc=%+v", got, gotTC)
		}
	}
}

func TestPartialVerdictValidation(t *testing.T) {
	enc := func(f Frame) []byte { return AppendSession(nil, f, 0, TraceContext{})[4:] }
	// partialBody frames an unbound payload of agg 1 from its flags byte
	// on.
	partialBody := func(rest ...byte) []byte {
		body := append([]byte{Version, TypePartialVerdict, 0, 0, 0, 1}, rest...)
		return append(body, 0, 0, 0, 0)
	}
	cases := []struct {
		name string
		body []byte
		want error
	}{
		{"empty entries", partialBody(0, 0), ErrFrameSize},
		{"entries over MaxPartialEntries", partialBody(0, 0x81, 0x10 /* 2049 */), ErrOversize},
		// The retired flag bit 0, on an entry laid out as its trial, votes
		// and rejects and two more columns.
		{"retired flag 0x01", partialBody(1, 1, 0, 1, 0, 5, 3), ErrFrameSize},
		{"zero votes", enc(&PartialVerdict{Agg: 1, Entries: []PartialEntry{{Trial: 0, Votes: 0}}}), ErrFrameSize},
		{"rejects over votes", enc(&PartialVerdict{Agg: 1, Entries: []PartialEntry{{Trial: 0, Votes: 2, Rejects: 3}}}), ErrFrameSize},
		// Hand-built payloads: agg, flags, count, then the trial, votes and
		// rejects columns.
		{"non-minimal column value", partialBody(0, 1, 0x80, 0x00, 1, 0), ErrFrameSize},
		{"delta below 0", partialBody(0, 2, 5, 11 /* -6 */, 1, 0, 0, 0), ErrFrameSize},
		{"delta above MaxUint32", partialBody(0, 2, 0xff, 0xff, 0xff, 0xff, 0x0f, 2 /* +1 */, 1, 0, 0, 0), ErrFrameSize},
		{"column cut inside a varint", partialBody(0, 1, 5, 0x80), ErrFrameSize},
		{"inverted window", enc(&AggHello{Agg: 1, K: 10, Trials: 2, Lo: 5, Hi: 5}), ErrFrameSize},
	}
	for _, c := range cases {
		if _, _, _, err := DecodeBodySession(c.body, nil); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}

	// Entry-count cap at encode.
	over := &PartialVerdict{Agg: 1, Entries: make([]PartialEntry, MaxPartialEntries+1)}
	if _, err := AppendPartialSession(nil, over, 0, TraceContext{}); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize encode: err = %v, want ErrOversize", err)
	}
}

func TestPartialVerdictWorstCaseFitsCap(t *testing.T) {
	// MaxPartialEntries adversarial entries (maximal per-column varints)
	// must still encode under the frame cap with a trace suffix.
	es := make([]PartialEntry, MaxPartialEntries)
	for i := range es {
		v := uint32(math.MaxUint32 - uint32(i))
		if i%2 == 0 {
			v = uint32(i)
		}
		es[i] = PartialEntry{Trial: v, Votes: v | 1, Rejects: v | 1}
	}
	p := &PartialVerdict{Agg: math.MaxUint32, Entries: es}
	enc, err := AppendPartialSession(nil, p, math.MaxUint32, TraceContext{Trace: 1, Span: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc)-4 > MaxBatchFrameBytes {
		t.Fatalf("worst-case partial body %d bytes exceeds cap %d", len(enc)-4, MaxBatchFrameBytes)
	}
	got, _, _ := decodeFrame(t, enc)
	if !reflect.DeepEqual(got.(*PartialVerdict).Entries, es) {
		t.Fatal("worst-case round trip lost entries")
	}
}

func TestPartialScratchReuse(t *testing.T) {
	// Partials of different lengths through the same scratch must decode
	// exactly their own entries.
	var sc DecodeScratch
	long := samplePartial()
	short := &PartialVerdict{Agg: 1,
		Entries: []PartialEntry{{Trial: 0, Votes: 2, Rejects: 1}}}
	for _, p := range []*PartialVerdict{long, short, long} {
		enc := AppendSession(nil, p, 0, TraceContext{})
		got, _, _, err := DecodeBodySession(enc[4:], &sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("scratch decode: got %#v, want %#v", got, p)
		}
	}
}
