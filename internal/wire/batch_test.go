package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// seqVotes builds the cluster's typical batch shape: one node's votes in
// trial order.
func seqVotes(node, n int) []BatchVote {
	votes := make([]BatchVote, n)
	for i := range votes {
		votes[i] = BatchVote{Trial: uint32(i), Node: uint32(node), Reject: i%3 == 0}
	}
	return votes
}

// advVotes builds adversarially jumpy values exercising wide deltas, from
// a tiny inline splitmix so the fixture is seeded and reproducible.
func advVotes(seed uint64, n int) []BatchVote {
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
		votes[i].Reject = next()&1 == 0
	}
	return votes
}

// batchRows returns the rows of a decoded batch frame, a VoteBatch or a
// VoteRun, and whether f was one.
func batchRows(f Frame) ([]BatchVote, bool) {
	switch b := f.(type) {
	case *VoteBatch:
		return b.Votes, true
	case *VoteRun:
		return b.AppendVotes(nil), true
	}
	return nil, false
}

func TestVoteBatchRoundTrip(t *testing.T) {
	tc := TraceContext{Trace: 0xfeed, Span: 0xbead}
	cases := []struct {
		name  string
		batch *VoteBatch
	}{
		{"single", &VoteBatch{Votes: []BatchVote{{Trial: 7, Node: 1999, Reject: true}}}},
		{"sequential", &VoteBatch{Votes: seqVotes(42, 100)}},
		{"adversarial", &VoteBatch{Votes: advVotes(1, 257)}},
		{"max", &VoteBatch{Votes: seqVotes(0, MaxBatchVotes)}},
		// Trial deltas +63, -63 (one-byte zigzag), +64 (two bytes), -64
		// (one byte) and -65 (two bytes): the decoder's inline fast path
		// and its readUvarint fallback meet here.
		{"deltas ±63 ±64", &VoteBatch{Votes: []BatchVote{{Trial: 1000, Node: 5}, {Trial: 1063, Node: 5},
			{Trial: 1000, Node: 5, Reject: true}, {Trial: 1064, Node: 5}, {Trial: 1000, Node: 5}, {Trial: 935, Node: 5}}}},
		// A trial column alternating five-byte and one-byte entries.
		{"alternating 1/5-byte varints", &VoteBatch{Votes: []BatchVote{{Trial: 0, Node: 9},
			{Trial: 3000000000, Node: 9}, {Trial: 3000000001, Node: 9, Reject: true}, {Trial: 1, Node: 9},
			{Trial: 2, Node: 9}, {Trial: 4000000000, Node: 9}, {Trial: 4000000001, Node: 9}}}},
	}
	for _, c := range cases {
		for _, ctx := range []TraceContext{{}, tc} {
			buf := AppendSession(nil, c.batch, 0, ctx)
			got, gotTC, _ := decodeFrame(t, buf)
			if gotTC != ctx {
				t.Errorf("%s: tc %+v want %+v", c.name, gotTC, ctx)
			}
			// A run decodes to a VoteRun, any other batch to its rows.
			votes, ok := batchRows(got)
			if _, run := got.(*VoteRun); !ok || run != isRun(c.batch.Votes) {
				t.Fatalf("%s: decoded %T", c.name, got)
			}
			if !reflect.DeepEqual(votes, c.batch.Votes) {
				t.Errorf("%s: round trip mismatch", c.name)
			}
			// Bijectivity: re-encoding the decoded batch reproduces the bytes.
			if !bytes.Equal(AppendSession(nil, got, 0, ctx), buf) {
				t.Errorf("%s: re-encode is not byte-identical", c.name)
			}
		}
	}
}

// TestVoteBatchDenseEncoding pins the point of delta encoding: the typical
// shape (one node, trials in order) costs ~2 bytes per vote, far below the
// 19-byte single-vote frame.
func TestVoteBatchDenseEncoding(t *testing.T) {
	b := &VoteBatch{Votes: seqVotes(1234, 1000)}
	if got, limit := len(b.appendPayload(nil)), 3*len(b.Votes); got > limit {
		t.Fatalf("sequential batch payload %d bytes for %d votes, want ≤ %d", got, len(b.Votes), limit)
	}
}

func TestVoteBatchCaps(t *testing.T) {
	var e BatchEncoder
	over := &VoteBatch{Votes: make([]BatchVote, MaxBatchVotes+1)}
	if _, err := e.AppendSession(nil, over, 0, TraceContext{}, false); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize batch: err = %v, want ErrOversize", err)
	}
	if _, err := e.AppendSession(nil, &VoteBatch{}, 0, TraceContext{}, false); err == nil {
		t.Fatal("empty batch: want error")
	}
	// A frame declaring more votes than MaxBatchVotes is rejected at decode.
	body := AppendSession(nil, &VoteBatch{Votes: seqVotes(0, 1)}, 0, TraceContext{})[4:]
	// payload starts at byte 2: flags, then the count varint (1 → one byte).
	body[3] = 0x81 // still one tuple encoded, but count now claims 129 …
	if _, _, _, err := DecodeBodySession(body, nil); err == nil {
		t.Fatal("corrupt count accepted")
	}
}

func TestVoteBatchRejectsNonCanonical(t *testing.T) {
	// frame builds an unbound batch body around a payload: flags, count,
	// trial column, node column, bitset.
	frame := func(payload ...byte) []byte {
		return append(append([]byte{Version, TypeVoteBatch}, payload...), 0, 0, 0, 0)
	}
	mut := func(name string, body []byte, wantErr error) {
		t.Helper()
		_, _, _, err := DecodeBodySession(body, nil)
		if wantErr != nil && !errors.Is(err, wantErr) {
			t.Errorf("%s: err = %v, want %v", name, err, wantErr)
		}
		if wantErr == nil && err == nil {
			t.Errorf("%s: corrupt batch accepted", name)
		}
	}
	payload := func() []byte { return (&VoteBatch{Votes: seqVotes(0, 9)}).appendPayload(nil) }

	// The flags byte must be zero: a spare bit, or the retired bit 0 on a
	// payload laid out as its trial, node and two more columns.
	p := payload()
	p[0] |= 2
	mut("spare flags", frame(p...), ErrFrameSize)
	mut("retired flag 0x01", frame(1, 1, 5, 6, 7, 8), ErrFrameSize)

	// Trailing bits of the reject bitset must be zero (9 votes → 2 bitset
	// bytes, 7 spare bits in the last one).
	p = payload()
	p[len(p)-1] |= 0x80
	mut("trailing bitset bits", frame(p...), ErrFrameSize)

	mut("empty batch", frame(0, 0), ErrFrameSize)
	mut("count over MaxBatchVotes", frame(0, 0x81, 0x20 /* 4097 */), ErrOversize)
	mut("non-minimal count", frame(0, 0x81, 0x00, 5, 6, 0), ErrFrameSize)
	mut("non-minimal column value", frame(0, 1, 0x80, 0x00, 6, 0), ErrFrameSize)
	mut("delta below 0", frame(0, 2, 5, 11 /* -6 */, 6, 0, 0), ErrFrameSize)
	mut("delta above MaxUint32", frame(0, 2, 0xff, 0xff, 0xff, 0xff, 0x0f, 2 /* +1 */, 6, 0, 0), ErrFrameSize)
	mut("first value above MaxUint32", frame(0, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 6, 0), ErrFrameSize)
	mut("column cut inside a varint", frame(0, 2, 5, 0x80), ErrFrameSize)

	// Truncated and padded payloads.
	p = payload()
	mut("truncated", frame(p[:len(p)-1]...), nil)
	mut("trailing bytes", frame(append(p, 0)...), ErrFrameSize)
}

// TestDecodeScratchReuse interleaves frame shapes and lengths through one
// scratch — column-path and run-path batches, longer and shorter than the
// frame before — and checks no state leaks between decodes.
func TestDecodeScratchReuse(t *testing.T) {
	var sc DecodeScratch
	adv := &VoteBatch{Votes: advVotes(2, 40)}
	plain := &VoteBatch{Votes: seqVotes(2, 17)}
	vote := &Vote{Trial: 5, Node: 2, Reject: true}
	wide := &VoteBatch{Votes: seqVotes(9, 300)}
	enc := func(f Frame) []byte { return AppendSession(nil, f, 0, TraceContext{}) }

	steps := []struct {
		raw  []byte
		want Frame
	}{
		{enc(adv), adv},
		{enc(plain), plain},
		{enc(vote), vote},
		{enc(wide), wide},
		{enc(adv), adv},
	}
	for i, s := range steps {
		f, _, _, err := DecodeBodySession(s.raw[4:], &sc)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		switch want := s.want.(type) {
		case *VoteBatch:
			if got, _ := batchRows(f); !reflect.DeepEqual(got, want.Votes) {
				t.Fatalf("step %d: batch state leaked across scratch reuse", i)
			}
		default:
			if !reflect.DeepEqual(f, s.want) {
				t.Fatalf("step %d: got %#v", i, f)
			}
		}
	}
}

// TestRunDecodeWritesNoRows pins the run path's contract: with a warm
// scratch, decoding a traced, session-bound 1024-vote run frame allocates
// nothing and returns a VoteRun holding the run, whose Rejects aliases
// the body's bitset, and leaves the rows an earlier off-run batch left in
// the scratch as they were.
func TestRunDecodeWritesNoRows(t *testing.T) {
	var sc DecodeScratch
	adv := AppendSession(nil, &VoteBatch{Votes: advVotes(4, 40)}, 0, TraceContext{})
	if _, _, _, err := DecodeBodySession(adv[headerBytes:], &sc); err != nil {
		t.Fatal(err)
	}
	rows := append([]BatchVote(nil), sc.batch.Votes...)
	run := seqVotes(7, 1024)
	body := AppendSession(nil, &VoteBatch{Votes: run}, 3, TraceContext{Trace: 1, Span: 2})[headerBytes:]
	var f Frame
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		f, _, _, err = DecodeBodySession(body, &sc)
	})
	r, ok := f.(*VoteRun)
	if err != nil || !ok {
		t.Fatalf("decoded %T, %v; want *VoteRun", f, err)
	}
	if allocs != 0 {
		t.Errorf("run decode allocates %v per frame, want 0", allocs)
	}
	if r.Trial != 0 || r.Node != 7 || r.N != 1024 || !reflect.DeepEqual(r.AppendVotes(nil), run) {
		t.Errorf("decoded run (trial %d, node %d, %d votes) does not hold the batch", r.Trial, r.Node, r.N)
	}
	// The bitset is the 128 bytes before the session field and trace suffix.
	end := len(body) - sessionBytes - traceContextBytes
	if len(r.Rejects) != 128 || &r.Rejects[0] != &body[end-128] {
		t.Errorf("Rejects (%d bytes) does not alias the body's bitset", len(r.Rejects))
	}
	if !reflect.DeepEqual(sc.batch.Votes, rows) {
		t.Error("run decode wrote the scratch's batch rows")
	}
}

// TestSteadyStateDecodeAllocs pins the allocation-bounded Reader contract:
// after warm-up, reading and decoding vote traffic — single frames, a
// column-path batch and run batches of two sizes — allocates nothing.
func TestSteadyStateDecodeAllocs(t *testing.T) {
	var stream []byte
	stream = AppendSession(stream, &Vote{Trial: 1, Node: 2, Reject: true}, 0, TraceContext{})
	stream = AppendSession(stream, &Vote{Trial: 2, Node: 2}, 5, TraceContext{Trace: 3, Span: 4})
	stream = AppendSession(stream, &VoteBatch{Votes: advVotes(3, 100)}, 0, TraceContext{})
	stream = AppendSession(stream, &VoteBatch{Votes: seqVotes(2, 200)}, 0, TraceContext{})
	stream = AppendSession(stream, &VoteBatch{Votes: seqVotes(2, 300)}, 0, TraceContext{})

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
			if _, _, _, err := DecodeBodySession(body, &sc); err != nil {
				t.Fatalf("decode: %v", err)
			}
		}
	}
	decodeAll() // warm-up: sizes the spill buffer and scratch slices
	if n := testing.AllocsPerRun(50, decodeAll); n != 0 {
		t.Fatalf("steady-state decode allocates %v per pass, want 0", n)
	}
}

// TestVoteBatchRunEncoding pins the run form's bytes — one node's votes
// on consecutive trials — and checks that they are the column encoder's
// bytes for that batch, that the decoder takes its run path on them, and
// that batches just off the run shape (a dropped vote, a duplicated vote,
// trials wrapping past MaxUint32) round-trip through the column path with
// the same rows.
func TestVoteBatchRunEncoding(t *testing.T) {
	run := make([]BatchVote, 10)
	for i := range run {
		run[i] = BatchVote{Trial: 1000 + uint32(i), Node: 300, Reject: i%4 == 1}
	}
	want := []byte{0x00, 10, 0xe8, 0x07} // flags, count, uvarint(1000)
	want = append(want, bytes.Repeat([]byte{0x02}, 9)...)
	want = append(want, 0xac, 0x02) // uvarint(300)
	want = append(want, make([]byte, 9)...)
	want = append(want, 0x22, 0x02) // rejects at 1, 5 and 9, LSB first
	b := &VoteBatch{Votes: run}
	got := b.appendPayload(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("run payload %x, want %x", got, want)
	}
	cols := binary.AppendUvarint([]byte{0x00, 10}, uint64(run[0].Trial))
	for i := 1; i < len(run); i++ {
		cols = appendDelta(cols, run[i-1].Trial, run[i].Trial)
	}
	cols = binary.AppendUvarint(cols, uint64(run[0].Node))
	for i := 1; i < len(run); i++ {
		cols = appendDelta(cols, run[i-1].Node, run[i].Node)
	}
	if !bytes.Equal(cols, want[:len(want)-2]) {
		t.Fatalf("column encoder writes %x, run form %x", cols, want[:len(want)-2])
	}
	if rows, ok := runPath(got); !ok || !reflect.DeepEqual(rows, run) {
		t.Fatalf("run path missed its own payload: rows %v", rows)
	}
	dropped := append(append([]BatchVote(nil), run[:4]...), run[5:]...)
	duplicated := append(append([]BatchVote(nil), run[:5]...), run[4:]...)
	wrapped := []BatchVote{{Trial: math.MaxUint32 - 1, Node: 3}, {Trial: math.MaxUint32, Node: 3, Reject: true}, {Trial: 0, Node: 3}}
	edge := []BatchVote{{Trial: math.MaxUint32 - 1, Node: math.MaxUint32}, {Trial: math.MaxUint32, Node: math.MaxUint32, Reject: true}}
	for _, c := range []struct {
		name  string
		votes []BatchVote
		run   bool
	}{{"dropped vote", dropped, false}, {"duplicated vote", duplicated, false}, {"wrapped trials", wrapped, false}, {"run to MaxUint32", edge, true}} {
		p := (&VoteBatch{Votes: c.votes}).appendPayload(nil)
		if _, ok := runPath(p); ok != c.run {
			t.Errorf("%s: run path taken = %v, want %v", c.name, ok, c.run)
		}
		dec, err := new(DecodeScratch).decodeBatch(p)
		if votes, _ := batchRows(dec); err != nil || !reflect.DeepEqual(votes, c.votes) {
			t.Errorf("%s: decoded %v, %v; want %v", c.name, votes, err, c.votes)
		}
		if re := dec.appendPayload(nil); !bytes.Equal(re, p) {
			t.Errorf("%s: re-encode %x, want %x", c.name, re, p)
		}
	}
}
