package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// seqVotes builds the cluster's typical batch shape: one node's votes in
// trial order.
func seqVotes(node, n int, sketch bool) []BatchVote {
	votes := make([]BatchVote, n)
	for i := range votes {
		votes[i] = BatchVote{Trial: uint32(i), Node: uint32(node)}
		if sketch {
			votes[i].Samples = 48
			votes[i].Collisions = uint32(i % 3)
		} else {
			votes[i].Reject = i%3 == 0
		}
	}
	return votes
}

// advVotes builds adversarially jumpy values exercising wide deltas, from
// a tiny inline splitmix so the fixture is seeded and reproducible.
func advVotes(seed uint64, n int, sketch bool) []BatchVote {
	next := func() uint32 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return uint32(z ^ z>>31)
	}
	votes := make([]BatchVote, n)
	for i := range votes {
		votes[i] = BatchVote{Trial: next(), Node: next()}
		if sketch {
			votes[i].Samples = next()
			votes[i].Collisions = next()
		} else {
			votes[i].Reject = next()&1 == 0
		}
	}
	return votes
}

func TestVoteBatchRoundTrip(t *testing.T) {
	tc := TraceContext{Trace: 0xfeed, Span: 0xbead}
	cases := []struct {
		name  string
		batch *VoteBatch
	}{
		{"single", &VoteBatch{Votes: []BatchVote{{Trial: 7, Node: 1999, Reject: true}}}},
		{"sequential", &VoteBatch{Votes: seqVotes(42, 100, false)}},
		{"sketch", &VoteBatch{Sketch: true, Votes: seqVotes(3, 64, true)}},
		{"adversarial", &VoteBatch{Votes: advVotes(1, 257, false)}},
		{"adversarial sketch", &VoteBatch{Sketch: true, Votes: advVotes(2, 33, true)}},
		{"max", &VoteBatch{Votes: seqVotes(0, MaxBatchVotes, false)}},
		// Trial deltas +63, -63 (one-byte zigzag), +64 (two bytes), -64
		// (one byte) and -65 (two bytes): the decoder's inline fast path
		// and its readUvarint fallback meet here.
		{"deltas ±63 ±64", &VoteBatch{Votes: []BatchVote{{Trial: 1000, Node: 5}, {Trial: 1063, Node: 5},
			{Trial: 1000, Node: 5, Reject: true}, {Trial: 1064, Node: 5}, {Trial: 1000, Node: 5}, {Trial: 935, Node: 5}}}},
		// A trial column alternating five-byte and one-byte entries.
		{"alternating 1/5-byte varints", &VoteBatch{Sketch: true, Votes: []BatchVote{{Trial: 0, Node: 9},
			{Trial: 3000000000, Node: 9}, {Trial: 3000000001, Node: 9, Collisions: 1}, {Trial: 1, Node: 9},
			{Trial: 2, Node: 9}, {Trial: 4000000000, Node: 9}, {Trial: 4000000001, Node: 9}}}},
	}
	for _, c := range cases {
		for _, ctx := range []TraceContext{{}, tc} {
			buf := AppendTraced(nil, c.batch, ctx)
			if len(buf) != EncodedSizeTraced(c.batch, ctx) {
				t.Errorf("%s: encoded %d bytes, EncodedSizeTraced says %d", c.name, len(buf), EncodedSizeTraced(c.batch, ctx))
			}
			if buf[4] != BatchVersion {
				t.Errorf("%s: stamped version %d, want %d", c.name, buf[4], BatchVersion)
			}
			got, gotTC, n, err := DecodeTraced(buf)
			if err != nil {
				t.Fatalf("%s: decode: %v", c.name, err)
			}
			if n != len(buf) || gotTC != ctx {
				t.Errorf("%s: consumed %d of %d bytes, tc %+v want %+v", c.name, n, len(buf), gotTC, ctx)
			}
			vb, ok := got.(*VoteBatch)
			if !ok {
				t.Fatalf("%s: decoded %T", c.name, got)
			}
			if vb.Compressed || vb.Saved != 0 {
				t.Errorf("%s: raw batch decoded as compressed (%v, %d)", c.name, vb.Compressed, vb.Saved)
			}
			if vb.Sketch != c.batch.Sketch || !reflect.DeepEqual(vb.Votes, c.batch.Votes) {
				t.Errorf("%s: round trip mismatch", c.name)
			}
			// Bijectivity: re-encoding the decoded batch reproduces the bytes.
			if !bytes.Equal(AppendTraced(nil, vb, ctx), buf) {
				t.Errorf("%s: re-encode is not byte-identical", c.name)
			}
		}
	}
}

// TestVoteBatchDenseEncoding pins the point of delta encoding: the typical
// shape (one node, trials in order) costs ~2 bytes per vote, far below the
// 15-byte v1 single-vote frame.
func TestVoteBatchDenseEncoding(t *testing.T) {
	b := &VoteBatch{Votes: seqVotes(1234, 1000, false)}
	if got, limit := b.payloadSize(), 3*len(b.Votes); got > limit {
		t.Fatalf("sequential batch payload %d bytes for %d votes, want ≤ %d", got, len(b.Votes), limit)
	}
}

func TestVoteBatchCaps(t *testing.T) {
	over := &VoteBatch{Votes: make([]BatchVote, MaxBatchVotes+1)}
	if _, err := AppendBatch(nil, over, TraceContext{}, false); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize batch: err = %v, want ErrOversize", err)
	}
	if _, err := AppendBatch(nil, &VoteBatch{}, TraceContext{}, false); err == nil {
		t.Fatal("empty batch: want error")
	}
	// A frame declaring more votes than MaxBatchVotes is rejected at decode.
	buf := Append(nil, &VoteBatch{Votes: seqVotes(0, 1, false)})
	// payload starts at byte 6: flags, then the count varint (1 → one byte).
	buf[7] = 0x81 // still one tuple encoded, but count now claims 129 …
	if _, _, err := Decode(buf); err == nil {
		t.Fatal("corrupt count accepted")
	}
}

func TestVoteBatchRejectsNonCanonical(t *testing.T) {
	enc := func(b *VoteBatch) []byte { return Append(nil, b) }
	mut := func(name string, raw []byte, wantErr error) {
		t.Helper()
		_, _, err := Decode(raw)
		if wantErr != nil && !errors.Is(err, wantErr) {
			t.Errorf("%s: err = %v, want %v", name, err, wantErr)
		}
		if wantErr == nil && err == nil {
			t.Errorf("%s: corrupt batch accepted", name)
		}
	}

	// Spare flag bits must be zero.
	raw := enc(&VoteBatch{Votes: seqVotes(0, 9, false)})
	raw[6] |= 2
	mut("spare flags", raw, ErrFrameSize)

	// Trailing bits of the reject bitset must be zero (9 votes → 2 bitset
	// bytes, 7 spare bits in the last one).
	raw = enc(&VoteBatch{Votes: seqVotes(0, 9, false)})
	raw[len(raw)-1] |= 0x80
	mut("trailing bitset bits", raw, ErrFrameSize)

	// Hand-built payloads: flags, count, trial column, node column, bitset.
	frame := func(payload ...byte) []byte {
		return append([]byte{0, 0, 0, byte(2 + len(payload)), BatchVersion, TypeVoteBatch}, payload...)
	}
	mut("non-minimal count", frame(0, 0x81, 0x00, 5, 6, 0), ErrFrameSize)
	mut("non-minimal column value", frame(0, 1, 0x80, 0x00, 6, 0), ErrFrameSize)
	mut("delta below 0", frame(0, 2, 5, 11 /* -6 */, 6, 0, 0), ErrFrameSize)
	mut("delta above MaxUint32", frame(0, 2, 0xff, 0xff, 0xff, 0xff, 0x0f, 2 /* +1 */, 6, 0, 0), ErrFrameSize)
	mut("first value above MaxUint32", frame(0, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 6, 0), ErrFrameSize)
	mut("column cut inside a varint", frame(0, 2, 5, 0x80), ErrFrameSize)

	// Truncated and padded payloads.
	raw = enc(&VoteBatch{Votes: seqVotes(0, 9, false)})
	short := append([]byte(nil), raw[:len(raw)-1]...)
	putLen(short)
	mut("truncated", short, nil)
	long := append(append([]byte(nil), raw...), 0)
	putLen(long)
	mut("trailing bytes", long, ErrFrameSize)
}

// putLen rewrites the 4-byte prefix to match the buffer.
func putLen(b []byte) {
	n := len(b) - 4
	b[0], b[1], b[2], b[3] = 0, 0, byte(n>>8), byte(n)
}

func TestVoteBatchCompressedRoundTrip(t *testing.T) {
	tc := TraceContext{Trace: 9, Span: 4}
	b := &VoteBatch{Votes: seqVotes(7, 512, false)}
	buf, err := AppendBatch(nil, b, tc, true)
	if err != nil {
		t.Fatal(err)
	}
	if typ := buf[5] &^ 0x80; typ != TypeVoteBatchZ {
		t.Fatalf("compressible batch encoded as %s, want votebatchz", TypeName(typ))
	}
	rawSize := len(AppendTraced(nil, b, tc))
	if len(buf) >= rawSize {
		t.Fatalf("compressed frame %d bytes ≥ raw %d", len(buf), rawSize)
	}
	got, gotTC, _, err := DecodeTraced(buf)
	if err != nil {
		t.Fatal(err)
	}
	vb := got.(*VoteBatch)
	if gotTC != tc || !vb.Compressed || vb.Saved != rawSize-len(buf) {
		t.Fatalf("decode: tc %+v, compressed %v, saved %d (want %d)", gotTC, vb.Compressed, vb.Saved, rawSize-len(buf))
	}
	if !reflect.DeepEqual(vb.Votes, b.Votes) {
		t.Fatal("compressed round trip lost votes")
	}

	// Incompressible content falls back to the raw frame.
	adv := &VoteBatch{Sketch: true, Votes: advVotes(3, 200, true)}
	buf, err = AppendBatch(nil, adv, TraceContext{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if typ := buf[5] &^ 0x80; typ != TypeVoteBatch {
		t.Fatalf("adversarial batch encoded as %s, want raw votebatch", TypeName(typ))
	}
	// Sub-threshold batches stay raw even when compressible.
	tiny := &VoteBatch{Votes: seqVotes(0, 8, false)}
	if tiny.payloadSize() >= MinCompressibleSize {
		t.Fatalf("test batch not sub-threshold: %d bytes", tiny.payloadSize())
	}
	buf, err = AppendBatch(nil, tiny, TraceContext{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if typ := buf[5] &^ 0x80; typ != TypeVoteBatch {
		t.Fatalf("sub-threshold batch encoded as %s, want raw votebatch", TypeName(typ))
	}
}

// TestDecodeScratchReuse interleaves frame shapes through one scratch and
// checks no state leaks between decodes.
func TestDecodeScratchReuse(t *testing.T) {
	var sc DecodeScratch
	sketch := &VoteBatch{Sketch: true, Votes: seqVotes(2, 40, true)}
	plain := &VoteBatch{Votes: seqVotes(2, 17, false)}
	vote := &Vote{Trial: 5, Node: 2, Reject: true}
	zbatch := &VoteBatch{Votes: seqVotes(9, 300, false)}
	zbuf, err := AppendBatch(nil, zbatch, TraceContext{}, true)
	if err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		raw  []byte
		want Frame
	}{
		{Append(nil, sketch), sketch},
		{Append(nil, plain), plain},
		{Append(nil, vote), vote},
		{zbuf, zbatch},
		{Append(nil, sketch), sketch},
	}
	for i, s := range steps {
		f, _, err := DecodeBodyScratch(s.raw[4:], &sc)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		switch want := s.want.(type) {
		case *VoteBatch:
			got := f.(*VoteBatch)
			if got.Sketch != want.Sketch || !reflect.DeepEqual(got.Votes, want.Votes) {
				t.Fatalf("step %d: batch state leaked across scratch reuse", i)
			}
		default:
			if !reflect.DeepEqual(f, s.want) {
				t.Fatalf("step %d: got %#v", i, f)
			}
		}
	}
}

// TestSteadyStateDecodeAllocs pins the allocation-bounded Reader contract
// claimed in PR 5: after warm-up, reading and decoding vote traffic —
// single frames and batches, raw and compressed — allocates nothing.
func TestSteadyStateDecodeAllocs(t *testing.T) {
	var stream []byte
	stream = Append(stream, &Vote{Trial: 1, Node: 2, Reject: true})
	stream = AppendTraced(stream, &Vote{Trial: 2, Node: 2}, TraceContext{Trace: 3, Span: 4})
	stream = Append(stream, &Sketch{Trial: 3, Node: 2, Samples: 9, Collisions: 1})
	stream = Append(stream, &VoteBatch{Votes: seqVotes(2, 200, false)})
	var err error
	if stream, err = AppendBatch(stream, &VoteBatch{Votes: seqVotes(2, 300, false)}, TraceContext{}, true); err != nil {
		t.Fatal(err)
	}

	br := bytes.NewReader(stream)
	r := NewReader(br)
	var sc DecodeScratch
	decodeAll := func() {
		br.Reset(stream)
		for {
			body, err := r.ReadBody()
			if err != nil {
				if err == io.EOF {
					break
				}
				t.Fatalf("read: %v", err)
			}
			if _, _, err := DecodeBodyScratch(body, &sc); err != nil {
				t.Fatalf("decode: %v", err)
			}
		}
	}
	decodeAll() // warm-up: sizes the spill buffer and scratch slices
	if n := testing.AllocsPerRun(50, decodeAll); n != 0 {
		t.Fatalf("steady-state decode allocates %v per pass, want 0", n)
	}
}
