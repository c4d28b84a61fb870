// Partial-verdict frames: the aggregation tier's wire protocol. An
// aggregator terminates a window of node connections, folds their votes
// into per-trial partial sums, and forwards those sums upstream as
// PartialVerdict frames — the monoid elements whose merge at the root is
// exactly the flat-star tally. AggHello is the aggregator's handshake,
// announcing the node-ID window it speaks for.
//
// Raw PartialVerdict payload layout (varints are minimal LEB128):
//
//	[agg u32 BE]          sender's aggregator ID, echoed from AggHello
//	[flags u8]            zero (reserved)
//	[count uvarint]       1 .. MaxPartialEntries
//	[trial column]        first value uvarint, then zigzag-uvarint deltas
//	[votes column]        same encoding (votes seen for the trial, ≥ 1)
//	[rejects column]      same encoding (≤ the votes column entry)
//
// Like VoteBatch, the encoding is canonical and bijective: minimal
// varints, a zero flags byte, per-entry validity (votes ≥ 1,
// rejects ≤ votes) and exact payload length are all enforced at decode,
// so every decodable frame re-encodes to the identical bytes —
// FuzzPartialVerdictRoundTrip and FuzzWireRoundTrip pin this. Both types
// are established types: their frames carry the session field like any
// other (wire.go).
package wire

import (
	"encoding/binary"
	"fmt"
)

// MaxPartialEntries caps the per-trial entries one PartialVerdict may
// carry. Worst-case encoding (adversarial values, ≤ 15 bytes per entry)
// stays under MaxBatchFrameBytes with room for the trace suffix.
const MaxPartialEntries = 2048

// AggHello opens an aggregator's upstream session: it announces the
// contiguous node-ID window [Lo, Hi) whose votes the sender terminates
// and folds. The receiver validates K/Trials like a node Hello, checks
// the window against its own, and keys partial-sum dedup on Agg.
type AggHello struct {
	// Agg is the sender's aggregator ID, unique among the receiver's
	// aggregator children.
	Agg uint32
	// K and Trials echo the session shape, validated like Hello.
	K      uint32
	Trials uint32
	// Lo and Hi bound the node-ID window [Lo, Hi) this aggregator serves.
	Lo uint32
	Hi uint32
}

// PartialEntry is one trial's folded sums inside a PartialVerdict.
type PartialEntry struct {
	// Trial indexes the Monte-Carlo trial in [0, Trials).
	Trial uint32
	// Votes counts the distinct (trial, node) votes folded into this
	// entry — at least 1, at most the width of the sender's window.
	Votes uint32
	// Rejects counts the rejecting votes among them (≤ Votes). Both
	// decision rules fold through this one sum: threshold compares the
	// merged total against T, and AND accepts iff it stays zero.
	Rejects uint32
}

// PartialVerdict carries an aggregator's per-trial partial sums upstream.
// The receiver merges each entry into its own tally exactly once per
// (trial, Agg) — retransmitted frames are deduplicated, so retries are
// idempotent.
type PartialVerdict struct {
	// Agg echoes the sender's AggHello identity.
	Agg uint32
	// Entries are the per-trial sums, at most MaxPartialEntries.
	Entries []PartialEntry
}

func (AggHello) Type() byte       { return TypeAggHello }
func (PartialVerdict) Type() byte { return TypePartialVerdict }

func (AggHello) payloadSize() int { return 20 }

func (h AggHello) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, h.Agg)
	dst = binary.BigEndian.AppendUint32(dst, h.K)
	dst = binary.BigEndian.AppendUint32(dst, h.Trials)
	dst = binary.BigEndian.AppendUint32(dst, h.Lo)
	return binary.BigEndian.AppendUint32(dst, h.Hi)
}

func (h *AggHello) decodePayload(p []byte) error {
	h.Agg = binary.BigEndian.Uint32(p[0:4])
	h.K = binary.BigEndian.Uint32(p[4:8])
	h.Trials = binary.BigEndian.Uint32(p[8:12])
	h.Lo = binary.BigEndian.Uint32(p[12:16])
	h.Hi = binary.BigEndian.Uint32(p[16:20])
	if h.Lo >= h.Hi {
		return fmt.Errorf("%w: agghello window [%d, %d)", ErrFrameSize, h.Lo, h.Hi)
	}
	return nil
}

func (p PartialVerdict) appendPayload(dst []byte) []byte {
	dst = append(binary.BigEndian.AppendUint32(dst, p.Agg), 0)
	dst = binary.AppendUvarint(dst, uint64(len(p.Entries)))
	e := p.Entries
	dst = binary.AppendUvarint(dst, uint64(e[0].Trial))
	for i := 1; i < len(e); i++ {
		dst = appendDelta(dst, e[i-1].Trial, e[i].Trial)
	}
	dst = binary.AppendUvarint(dst, uint64(e[0].Votes))
	for i := 1; i < len(e); i++ {
		dst = appendDelta(dst, e[i-1].Votes, e[i].Votes)
	}
	dst = binary.AppendUvarint(dst, uint64(e[0].Rejects))
	for i := 1; i < len(e); i++ {
		dst = appendDelta(dst, e[i-1].Rejects, e[i].Rejects)
	}
	return dst
}

// decodePayload parses a partial payload, decoding its delta columns into
// sc's column scratch and then every entry in one pass.
func (p *PartialVerdict) decodePayload(b []byte, sc *DecodeScratch) error {
	if len(b) < 6 {
		return fmt.Errorf("%w: %d-byte partial payload", ErrFrameSize, len(b))
	}
	p.Agg = binary.BigEndian.Uint32(b[0:4])
	if b[4] != 0 {
		return fmt.Errorf("%w: partial flags %#x", ErrFrameSize, b[4])
	}
	cnt, off, err := readUvarint(b, 5)
	if err != nil {
		return err
	}
	if cnt == 0 {
		return fmt.Errorf("%w: empty partial verdict", ErrFrameSize)
	}
	if cnt > MaxPartialEntries {
		return fmt.Errorf("%w: partial of %d entries (limit %d)", ErrOversize, cnt, MaxPartialEntries)
	}
	n := int(cnt)
	cols := sc.columns(3 * n)
	for c := 0; c < 3; c++ {
		if off, err = decodeColumn(b, off, cols[c*n:(c+1)*n]); err != nil {
			return err
		}
	}
	if off != len(b) {
		return fmt.Errorf("%w: %d trailing partial bytes", ErrFrameSize, len(b)-off)
	}
	if cap(p.Entries) < n {
		p.Entries = make([]PartialEntry, n)
	}
	p.Entries = p.Entries[:n]
	for i := range p.Entries {
		e := PartialEntry{Trial: cols[i], Votes: cols[n+i], Rejects: cols[2*n+i]}
		if e.Votes == 0 {
			return fmt.Errorf("%w: partial entry for trial %d with zero votes", ErrFrameSize, e.Trial)
		}
		if e.Rejects > e.Votes {
			return fmt.Errorf("%w: partial entry with %d rejects over %d votes", ErrFrameSize, e.Rejects, e.Votes)
		}
		p.Entries[i] = e
	}
	return nil
}

// AppendPartialSession appends p's wire encoding bound to session and
// carrying tc to dst, enforcing the entry-count and payload-size caps the
// decoder will apply; on error dst is returned unchanged.
func AppendPartialSession(dst []byte, p *PartialVerdict, session uint32, tc TraceContext) ([]byte, error) {
	if len(p.Entries) == 0 {
		return dst, fmt.Errorf("wire: empty partial verdict")
	}
	if len(p.Entries) > MaxPartialEntries {
		return dst, fmt.Errorf("%w: partial of %d entries (limit %d)", ErrOversize, len(p.Entries), MaxPartialEntries)
	}
	return appendCapped(dst, p, session, tc)
}
