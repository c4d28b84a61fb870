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
		for _, sketch := range []bool{false, true} {
			p := samplePartial()
			p.Sketch = sketch
			if sketch {
				for i := range p.Entries {
					p.Entries[i].Samples = uint64(1000 + i*3)
					p.Entries[i].Collisions = uint64(i)
				}
			}
			enc, err := AppendPartial(nil, p, tc)
			if err != nil {
				t.Fatal(err)
			}
			got, gotTC, n, err := DecodeTraced(enc)
			if err != nil {
				t.Fatalf("decode own encoding: %v", err)
			}
			if n != len(enc) || gotTC != tc {
				t.Fatalf("consumed %d of %d, tc %+v", n, len(enc), gotTC)
			}
			pv, ok := got.(*PartialVerdict)
			if !ok || !reflect.DeepEqual(pv, p) {
				t.Fatalf("round trip: got %#v, want %#v", got, p)
			}
			// Canonical bytes: re-encoding the decoded frame is identical.
			if re := AppendTraced(nil, pv, tc); !bytes.Equal(re, enc) {
				t.Fatalf("re-encode mismatch:\n%x\n%x", re, enc)
			}
		}
	}
}

func TestAggHelloRoundTrip(t *testing.T) {
	h := &AggHello{Agg: 2, K: 100, Trials: 16, Lo: 25, Hi: 50}
	for _, tc := range []TraceContext{{}, {Trace: 5, Span: 6}} {
		enc := AppendTraced(nil, h, tc)
		if len(enc)-4 > MaxFrameBytes {
			t.Fatalf("agghello body %d bytes exceeds MaxFrameBytes", len(enc)-4)
		}
		got, gotTC, n, err := DecodeTraced(enc)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(enc) || gotTC != tc || !reflect.DeepEqual(got, h) {
			t.Fatalf("round trip: got %#v tc=%+v n=%d", got, gotTC, n)
		}
	}
}

func TestPartialVerdictValidation(t *testing.T) {
	enc := func(p *PartialVerdict) []byte { return AppendTraced(nil, p, TraceContext{}) }
	// partialFrame frames a vote-mode payload of agg 1 from the bytes after
	// its flags byte.
	partialFrame := func(rest ...byte) []byte {
		payload := append([]byte{0, 0, 0, 1, 0}, rest...)
		return append([]byte{0, 0, 0, byte(2 + len(payload)), PartialVersion, TypePartialVerdict}, payload...)
	}
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"empty entries", append([]byte{0, 0, 0, 8, PartialVersion, TypePartialVerdict, 0, 0, 0, 1, 0, 0}, 0), ErrFrameSize},
		{"zero votes", enc(&PartialVerdict{Agg: 1, Entries: []PartialEntry{{Trial: 0, Votes: 0}}}), ErrFrameSize},
		{"rejects over votes", enc(&PartialVerdict{Agg: 1, Entries: []PartialEntry{{Trial: 0, Votes: 2, Rejects: 3}}}), ErrFrameSize},
		{"agghello at v1", Append(nil, &Hello{})[:0], nil}, // placeholder replaced below
		// Hand-built payloads: agg, flags, count, then the trial, votes and
		// rejects columns.
		{"non-minimal column value", partialFrame(1, 0x80, 0x00, 1, 0), ErrFrameSize},
		{"delta below 0", partialFrame(2, 5, 11 /* -6 */, 1, 0, 0, 0), ErrFrameSize},
		{"delta above MaxUint32", partialFrame(2, 0xff, 0xff, 0xff, 0xff, 0x0f, 2 /* +1 */, 1, 0, 0, 0), ErrFrameSize},
		{"column cut inside a varint", partialFrame(1, 5, 0x80), ErrFrameSize},
	}
	// AggHello encoded at the wrong version must be rejected.
	v1 := []byte{0, 0, 0, 22, MinVersion, TypeAggHello}
	v1 = append(v1, make([]byte, 20)...)
	cases[3] = struct {
		name string
		raw  []byte
		want error
	}{"agghello at v1", v1, ErrVersion}

	for _, c := range cases {
		if _, _, err := Decode(c.raw); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}

	// Inverted window.
	bad := &AggHello{Agg: 1, K: 10, Trials: 2, Lo: 5, Hi: 5}
	if _, _, err := Decode(AppendTraced(nil, bad, TraceContext{})); !errors.Is(err, ErrFrameSize) {
		t.Errorf("inverted window: err = %v, want ErrFrameSize", err)
	}

	// Entry-count cap at encode and decode.
	over := &PartialVerdict{Agg: 1, Entries: make([]PartialEntry, MaxPartialEntries+1)}
	if _, err := AppendPartial(nil, over, TraceContext{}); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize encode: err = %v, want ErrOversize", err)
	}

	// Old types must not decode at v4.
	old := []byte{0, 0, 0, 11, PartialVersion, TypeVote, 0, 0, 0, 0, 0, 0, 0, 1, 0}
	if _, _, err := Decode(old); !errors.Is(err, ErrVersion) {
		t.Errorf("vote at v4: err = %v, want ErrVersion", err)
	}
	// Partial types must not decode at v3 or below.
	p := samplePartial()
	enc3 := AppendTraced(nil, p, TraceContext{})
	enc3[4] = BatchVersion
	if _, _, err := Decode(enc3); !errors.Is(err, ErrVersion) {
		t.Errorf("partial at v3: err = %v, want ErrVersion", err)
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
		s := uint64(math.MaxUint64) - uint64(i)
		if i%2 == 0 {
			s = uint64(i)
		}
		es[i] = PartialEntry{Trial: v, Votes: v | 1, Rejects: v | 1, Samples: s, Collisions: s}
	}
	p := &PartialVerdict{Agg: math.MaxUint32, Sketch: true, Entries: es}
	enc, err := AppendPartial(nil, p, TraceContext{Trace: 1, Span: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc)-4 > MaxBatchFrameBytes {
		t.Fatalf("worst-case partial body %d bytes exceeds cap %d", len(enc)-4, MaxBatchFrameBytes)
	}
	got, _, _, err := DecodeTraced(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.(*PartialVerdict).Entries, es) {
		t.Fatal("worst-case round trip lost entries")
	}
}

func TestPartialScratchReuse(t *testing.T) {
	// A sketch-mode decode followed by a vote-mode decode through the same
	// scratch must not leak sums.
	var sc DecodeScratch
	sk := &PartialVerdict{Agg: 1, Sketch: true,
		Entries: []PartialEntry{{Trial: 0, Votes: 2, Rejects: 1, Samples: 7, Collisions: 3}}}
	plain := &PartialVerdict{Agg: 1,
		Entries: []PartialEntry{{Trial: 0, Votes: 2, Rejects: 1}}}
	for _, p := range []*PartialVerdict{sk, plain} {
		enc := AppendTraced(nil, p, TraceContext{})
		got, _, err := DecodeBodyScratch(enc[4:], &sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("scratch decode: got %#v, want %#v", got, p)
		}
	}
}
