// Vote batching: the VoteBatch frame packs many (trial, node, vote)
// tuples into one wire frame, amortizing the 4-byte prefix, the syscall,
// and the referee's per-frame bookkeeping across up to MaxBatchVotes
// votes.
//
// Raw payload layout (all varints are unsigned LEB128, minimal-length):
//
//	[flags u8]            zero (reserved)
//	[count uvarint]       1 .. MaxBatchVotes
//	[trial column]        first value uvarint, then zigzag-uvarint deltas
//	[node column]         same encoding
//	[reject bitset]       ⌈count/8⌉ bytes, LSB-first, trailing bits zero
//
// Delta columns exploit the cluster's access pattern — a node sends its
// own votes in trial order, so trial deltas are +1 and node deltas are 0,
// one byte each — without assuming it: any uint32 values round-trip. The
// decoder enforces minimal varints, zero trailing bitset bits, a zero
// flags byte and exact payload length, so the encoding is bijective: every
// decodable batch re-encodes to the identical bytes, the property
// FuzzVoteBatchRoundTrip and FuzzWireRoundTrip pin. This is the one
// encoding of a batch; VoteBatch is an established type, so its frames
// carry the session field like any other (wire.go).
//
// Run form. One node's votes on trials t0 … t0+n−1, every clean cluster
// batch, have the columns uvarint(t0), n−1 bytes 0x02 (zigzag +1),
// uvarint(node), n−1 bytes 0x00. VoteRun is that batch as (t0, node, n,
// reject bitset), and the one encoder of those bytes: it appends the
// constant runs instead of 2n varints. The decoder matches them as whole
// byte runs and returns a VoteRun whose bitset aliases the payload,
// writing no rows, but only on bytes the column decoder accepts with the
// same rows; it falls through to the column decoder on any other. So
// bytes, rows, errors and bijectivity are those of the column form, as
// FuzzVoteBatchRunMatchesColumns checks; only the decoded Go type says
// which path a payload took.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// MaxBatchVotes caps the tuples one VoteBatch may carry. Worst-case
// encoding (adversarial values) stays under MaxBatchFrameBytes with room
// for the trace suffix.
const MaxBatchVotes = 4096

// The delta bytes of a run (see the file comment); never written.
var runTrialDeltas, runNodeDeltas = bytes.Repeat([]byte{0x02}, MaxBatchVotes), make([]byte, MaxBatchVotes)

// BatchVote is one tuple inside a VoteBatch, the fields of a Vote.
type BatchVote struct {
	Trial  uint32
	Node   uint32
	Reject bool
}

// VoteBatch is a batch of votes from one node. The decoder returns a
// batch in run form as a VoteRun instead.
type VoteBatch struct {
	// Votes are the batched tuples, at most MaxBatchVotes.
	Votes []BatchVote
}

func (VoteBatch) Type() byte { return TypeVoteBatch }

// VoteRun is a VoteBatch in run form (see the file comment), a VoteBatch
// frame on the wire: node Node's N votes, 1 … MaxBatchVotes, on trials
// Trial … Trial+N−1, vote i rejecting when bit i of the ⌈N/8⌉-byte
// bitset Rejects, LSB-first, is set; trailing bits are zero. A decoded
// VoteRun's Rejects aliases the frame body, so it is valid only until the
// next decode with the same scratch, and only while the body is.
type VoteRun struct {
	Trial, Node uint32
	N           int
	Rejects     []byte
}

func (VoteRun) Type() byte { return TypeVoteBatch }

func (r VoteRun) appendPayload(dst []byte) []byte {
	dst = binary.AppendUvarint(append(dst, 0), uint64(r.N))
	dst = append(binary.AppendUvarint(dst, uint64(r.Trial)), runTrialDeltas[:r.N-1]...)
	dst = append(binary.AppendUvarint(dst, uint64(r.Node)), runNodeDeltas[:r.N-1]...)
	return append(dst, r.Rejects...)
}

// AppendVotes appends the run's N rows to dst, returning the result.
func (r *VoteRun) AppendVotes(dst []BatchVote) []BatchVote {
	for i := 0; i < r.N; i++ {
		dst = append(dst, BatchVote{Trial: r.Trial + uint32(i), Node: r.Node, Reject: r.Rejects[i>>3]>>(i&7)&1 == 1})
	}
	return dst
}

// zigzag maps a signed delta to an unsigned varint-friendly value
// (0,-1,1,-2,... → 0,1,2,3,...); unzigzag inverts it. Both are bijections,
// so delta columns stay canonical.
func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen returns the minimal LEB128 length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// readUvarint decodes a minimal-length uvarint at p[off:], rejecting
// truncated, overlong and non-minimal encodings.
func readUvarint(p []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: bad varint at payload offset %d", ErrFrameSize, off)
	}
	if n != uvarintLen(v) {
		return 0, 0, fmt.Errorf("%w: non-minimal varint at payload offset %d", ErrFrameSize, off)
	}
	return v, off + n, nil
}

// appendDelta appends v, the value after prev in a delta column as
// decodeColumn reads it; a column's first value goes out as a plain
// uvarint. VoteBatch, PartialVerdict and SessionReport encode every
// column by looping over their rows with it, and it inlines there.
func appendDelta(dst []byte, prev, v uint32) []byte {
	return binary.AppendUvarint(dst, zigzag(int64(v)-int64(prev)))
}

// decodeColumn decodes one delta column at p[off:] into col. It is the
// column decoder of VoteBatch, PartialVerdict and SessionReport, which
// share one encoding: the first value as a uvarint, then the zigzag of
// each value's signed difference from the previous one. The value bound
// is also the delta bound: a delta passes iff it keeps the column inside
// [0, MaxUint32], exactly the signed deltas |d| ≤ MaxUint32 that land in
// range. A one-byte varint (always minimal) decodes inline; longer ones go
// through readUvarint's truncation and minimality checks.
func decodeColumn(p []byte, off int, col []uint32) (int, error) {
	var prev uint64
	for i := range col {
		var u uint64
		if off < len(p) && p[off] < 0x80 {
			u = uint64(p[off])
			off++
		} else {
			var err error
			if u, off, err = readUvarint(p, off); err != nil {
				return 0, err
			}
		}
		if i > 0 {
			u = prev + uint64(unzigzag(u))
		}
		if u > math.MaxUint32 {
			return 0, fmt.Errorf("%w: column value %d out of range", ErrFrameSize, int64(u))
		}
		col[i] = uint32(u)
		prev = u
	}
	return off, nil
}

func (b VoteBatch) appendPayload(dst []byte) []byte {
	v := b.Votes
	n := len(v)
	switch {
	case n == 0:
		return binary.AppendUvarint(append(dst, 0), 0)
	case isRun(v):
		// The run's payload up to its bitset, which the loop below appends.
		dst = VoteRun{Trial: v[0].Trial, Node: v[0].Node, N: n}.appendPayload(dst)
	default:
		dst = binary.AppendUvarint(append(dst, 0), uint64(n))
		dst = binary.AppendUvarint(dst, uint64(v[0].Trial))
		for i := 1; i < n; i++ {
			dst = appendDelta(dst, v[i-1].Trial, v[i].Trial)
		}
		dst = binary.AppendUvarint(dst, uint64(v[0].Node))
		for i := 1; i < n; i++ {
			dst = appendDelta(dst, v[i-1].Node, v[i].Node)
		}
	}
	var bits byte
	for i := range v {
		if v[i].Reject {
			bits |= 1 << (i & 7)
		}
		if i&7 == 7 || i == n-1 {
			dst = append(dst, bits)
			bits = 0
		}
	}
	return dst
}

// decodeBatch parses a VoteBatch payload: a run into sc.run, whose
// Rejects aliases p, anything else by decoding its delta columns into
// sc's column scratch and then every row of sc.batch in one pass.
func (sc *DecodeScratch) decodeBatch(p []byte) (Frame, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("%w: %d-byte batch payload", ErrFrameSize, len(p))
	}
	if p[0] != 0 {
		return nil, fmt.Errorf("%w: batch flags %#x", ErrFrameSize, p[0])
	}
	cnt, off, err := readUvarint(p, 1)
	if err != nil {
		return nil, err
	}
	if cnt == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrFrameSize)
	}
	if cnt > MaxBatchVotes {
		return nil, fmt.Errorf("%w: batch of %d votes (limit %d)", ErrOversize, cnt, MaxBatchVotes)
	}
	n := int(cnt)
	if sc.run.decode(p[off:], n) {
		return &sc.run, nil
	}
	cols := sc.columns(2 * n)
	for c := 0; c < 2; c++ {
		if off, err = decodeColumn(p, off, cols[c*n:(c+1)*n]); err != nil {
			return nil, err
		}
	}
	nb := (n + 7) / 8
	if len(p)-off != nb {
		return nil, fmt.Errorf("%w: batch bitset of %d bytes, want %d", ErrFrameSize, len(p)-off, nb)
	}
	bits := p[off:]
	if r := n & 7; r != 0 && bits[nb-1]>>r != 0 {
		return nil, fmt.Errorf("%w: nonzero trailing bitset bits", ErrFrameSize)
	}
	b := &sc.batch
	if cap(b.Votes) < n {
		b.Votes = make([]BatchVote, n)
	}
	b.Votes = b.Votes[:n]
	for i := range b.Votes {
		b.Votes[i] = BatchVote{Trial: cols[i], Node: cols[n+i], Reject: bits[i>>3]>>(i&7)&1 == 1}
	}
	return b, nil
}

// isRun reports whether votes are a run: one node's votes on trials
// t0 … t0+n−1, none past MaxUint32.
func isRun(votes []BatchVote) bool {
	t0, node := uint64(votes[0].Trial), votes[0].Node
	for i := range votes {
		if uint64(votes[i].Trial) != t0+uint64(i) || votes[i].Node != node {
			return false
		}
	}
	return true
}

// decode sets r from p, the columns and bitset of an n-vote batch
// payload, if p is a run the column decoder accepts, and reports whether
// it was; on false it leaves r unchanged.
func (r *VoteRun) decode(p []byte, n int) bool {
	t0, off, err := readUvarint(p, 0)
	if err != nil || t0 > math.MaxUint32-uint64(n-1) || !bytes.HasPrefix(p[off:], runTrialDeltas[:n-1]) {
		return false
	}
	node, off, err := readUvarint(p, off+n-1)
	if err != nil || node > math.MaxUint32 || !bytes.HasPrefix(p[off:], runNodeDeltas[:n-1]) {
		return false
	}
	bits := p[off+n-1:]
	if len(bits) != (n+7)/8 || n&7 != 0 && bits[len(bits)-1]>>(n&7) != 0 {
		return false
	}
	*r = VoteRun{Trial: uint32(t0), Node: uint32(node), N: n, Rejects: bits}
	return true
}

// BatchEncoder encodes VoteBatch frames, enforcing the vote-count and
// frame-size caps the decoder will apply. The zero value is ready to use.
type BatchEncoder struct{}

// AppendSession appends b's wire encoding bound to session and carrying tc
// to dst. The trailing bool is ignored; it remains so existing callers
// keep compiling. On error dst is returned unchanged.
func (BatchEncoder) AppendSession(dst []byte, b *VoteBatch, session uint32, tc TraceContext, _ bool) ([]byte, error) {
	if len(b.Votes) == 0 {
		return dst, fmt.Errorf("wire: empty vote batch")
	}
	if len(b.Votes) > MaxBatchVotes {
		return dst, fmt.Errorf("%w: batch of %d votes (limit %d)", ErrOversize, len(b.Votes), MaxBatchVotes)
	}
	return appendCapped(dst, b, session, tc)
}
