// Package wire is the cluster runtime's binary codec: a length-prefixed
// framing for the messages the 0-round protocols exchange over real
// connections — a node's Hello, its per-trial Vote, the Done marker
// closing its vote stream and the referee's Verdict, plus
// the batched and aggregated forms of those votes (batch.go, partial.go)
// and the session service's control frames (session.go).
//
// Every frame on the wire has one layout:
//
//	[len u32 BE][version 5][type | trace flag][payload][session u32 BE][trace 16 B]
//
// The length counts everything after the prefix. The established types,
// Hello through PartialVerdict, always carry the session field, 0 meaning
// "bound to no session"; the four session control types carry none, since
// any session identity they need sits in their payload. The type byte's
// high bit flags the trailing trace context (trace ID + span ID, both
// big-endian uint64, trace ID nonzero) that links the frame into the
// telemetry plane's distributed trace. So every (frame, session, trace)
// triple has exactly one byte representation, with no exception: every
// body the decoder accepts re-encodes to exactly its bytes. The decoder
// rejects any other version byte with ErrVersion. Type bytes 3 and 7 are
// retired and stay reserved: the decoder rejects them with
// ErrUnknownType. Trace context is observability metadata only: the
// referee's verdicts never depend on it.
//
// Single-vote frames are tiny and fixed-size per type; the decoder
// enforces both the per-type payload size and the MaxFrameBytes cap before
// decoding a payload, mirroring the simulator's CONGEST bandwidth check
// (simnet.ErrBandwidthExceeded): a peer cannot make the referee allocate or
// buffer unbounded memory by lying in the length prefix, and an oversized
// frame is a protocol error, not a crash. Batch frames amortize framing
// across up to MaxBatchVotes tuples and get their own, larger cap
// (MaxBatchFrameBytes) — a typed per-frame-type limit, not a raising of the
// CONGEST-mirror cap, which keeps applying to every single-vote type.
//
// Decoding never panics on adversarial input: truncated, oversized,
// wrong-version, unknown-type, mis-sized and bad-trace-context frames all
// surface as typed errors (ErrTruncated, ErrOversize, ErrVersion,
// ErrUnknownType, ErrFrameSize, ErrTraceContext, ErrSession), which
// FuzzWireRoundTrip pins.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol's one version byte. The decoder rejects any
// other value with ErrVersion.
const Version = 5

// MaxFrameBytes caps the on-wire frame length (version + type + payload +
// session field + optional trace context) of every fixed-size frame type.
// The single-vote frame, a traced session-bound Vote, is 31 bytes; the
// cap leaves headroom while keeping the referee's
// per-connection buffer trivially bounded — the cluster analogue of the
// CONGEST per-edge bandwidth limit. The columnar types have their own cap
// (MaxBatchFrameBytes); FrameCap resolves the bound per type.
const MaxFrameBytes = 64

// MaxBatchFrameBytes caps the on-wire length of a batch frame. It bounds
// MaxBatchVotes worst-case-encoded tuples (≤ 11 bytes each) with room for
// the trace suffix, while still keeping per-connection
// buffering small enough that 10⁴+ concurrent peers fit in memory.
const MaxBatchFrameBytes = 1 << 17

// FrameCap returns the on-wire frame-length cap (excluding the 4-byte
// prefix) for a frame type byte: MaxBatchFrameBytes for batch types,
// MaxFrameBytes for everything else (including unknown types, which are
// rejected before the cap matters).
func FrameCap(t byte) int {
	if t == TypeVoteBatch || t == TypePartialVerdict || t == TypeSessionReport {
		return MaxBatchFrameBytes
	}
	return MaxFrameBytes
}

// headerBytes is the length prefix size.
const headerBytes = 4

// traceContextBytes is the encoded size of a TraceContext suffix.
const traceContextBytes = 16

// TraceContext is the optional trace correlation suffix of a frame: the
// sender's trace ID and the span that emitted the frame. A zero Trace means
// "absent" — such frames encode without the suffix, and the decoder
// rejects a flagged suffix whose trace ID is zero (ErrTraceContext) so
// every encoding has exactly one byte representation.
type TraceContext struct {
	Trace uint64
	Span  uint64
}

// IsZero reports whether the context is absent (no trace ID).
func (tc TraceContext) IsZero() bool { return tc.Trace == 0 }

// Frame type identifiers.
const (
	// TypeHello opens a node's session: node ID, network size, trial count.
	TypeHello = byte(iota + 1)
	// TypeVote carries one node's accept/reject for one trial.
	TypeVote
	// typeRetiredSketch (3) once carried a node's collision count. Like
	// typeRetiredBatch it stays reserved so the type bytes after it keep
	// their values, and the decoder rejects it with ErrUnknownType.
	typeRetiredSketch
	// TypeDone marks the end of a node's vote stream.
	TypeDone
	// TypeVerdict is the referee's closing summary to each node.
	TypeVerdict
	// TypeVoteBatch packs many (trial, node, vote) tuples into one
	// delta/bit-packed frame (batch.go).
	TypeVoteBatch
	// typeRetiredBatch (7) once marked a block-compressed VoteBatch. It
	// stays reserved so the type bytes after it keep their values, and the
	// decoder rejects it with ErrUnknownType.
	typeRetiredBatch
	// TypeAggHello opens an aggregator's upstream session, announcing the
	// node-ID window it terminates (partial.go).
	TypeAggHello
	// TypePartialVerdict carries an aggregator's per-trial partial sums
	// upstream (partial.go).
	TypePartialVerdict
	// TypeSessionOpen asks the multi-tenant service to admit a new testing
	// session (session.go).
	TypeSessionOpen
	// TypeSessionAccept grants admission, assigning the session ID.
	TypeSessionAccept
	// TypeSessionReject denies admission with a typed reason.
	TypeSessionReject
	// TypeSessionReport is the service's closing per-trial tally to the
	// session opener.
	TypeSessionReport
)

// traceFlag is the high bit of a frame's type byte: set when a 16-byte
// TraceContext suffix ends the frame.
const traceFlag = 0x80

// sessionBytes is the encoded size of the session field.
const sessionBytes = 4

// hasSessionField reports whether frames of base type t carry the session
// field: the established types do, the session control types do not.
func hasSessionField(t byte) bool { return t < TypeSessionOpen }

// TypeName returns a short lowercase name for a frame type byte, for
// metric and span labels ("hello", "vote", ...; "type<N>" when unknown).
func TypeName(t byte) string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeVote:
		return "vote"
	case TypeDone:
		return "done"
	case TypeVerdict:
		return "verdict"
	case TypeVoteBatch:
		return "votebatch"
	case TypeAggHello:
		return "agghello"
	case TypePartialVerdict:
		return "partialverdict"
	case TypeSessionOpen:
		return "sessionopen"
	case TypeSessionAccept:
		return "sessionaccept"
	case TypeSessionReject:
		return "sessionreject"
	case TypeSessionReport:
		return "sessionreport"
	default:
		return fmt.Sprintf("type%d", t)
	}
}

// Codec errors. DecodeBodySession and the Reader wrap these with
// positional detail; match with errors.Is.
var (
	// ErrTruncated marks a frame cut short: a header or body shorter than
	// its declared length.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrOversize marks a frame beyond its type's FrameCap (a length
	// prefix beyond MaxBatchFrameBytes included), or a columnar frame over
	// its entry cap.
	ErrOversize = errors.New("wire: frame exceeds size limit")
	// ErrVersion marks a version byte other than Version.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrUnknownType marks an unrecognized frame type byte.
	ErrUnknownType = errors.New("wire: unknown frame type")
	// ErrFrameSize marks a known frame type with a malformed payload
	// (wrong size, a missing session field, an out-of-range field, or a
	// non-canonical columnar encoding).
	ErrFrameSize = errors.New("wire: malformed payload")
	// ErrTraceContext marks a traced frame whose trace context is
	// malformed (zero trace ID).
	ErrTraceContext = errors.New("wire: invalid trace context")
	// ErrSession marks a zero session ID in a control frame that requires
	// one (SessionAccept, SessionReport).
	ErrSession = errors.New("wire: invalid session ID")
)

// Frame is one protocol message. Implementations are small value types;
// encoding appends to a caller-owned buffer (AppendSession).
type Frame interface {
	// Type returns the frame's type byte.
	Type() byte
	// appendPayload appends the payload encoding to dst.
	appendPayload(dst []byte) []byte
}

// fixedFrame is a frame whose payload has one size per type — every type
// but the columnar VoteBatch, PartialVerdict and SessionReport, which
// decode through their own column codec.
type fixedFrame interface {
	Frame
	// payloadSize returns the type's one payload length.
	payloadSize() int
	// decodePayload parses a payload of exactly payloadSize bytes.
	decodePayload(p []byte) error
}

// Hello opens a node's session with the referee.
type Hello struct {
	// Node is the sender's ID in [0, K).
	Node uint32
	// K is the network size the node was configured with; the referee
	// rejects mismatches.
	K uint32
	// Trials is the number of votes the node will submit.
	Trials uint32
}

// Vote is one node's verdict on one trial.
type Vote struct {
	// Trial indexes the Monte-Carlo trial in [0, Trials).
	Trial uint32
	// Node is the voting node's ID.
	Node uint32
	// Reject is true when the node's tester rejected its sample block.
	Reject bool
}

// Done closes a node's vote stream; the referee treats the node as
// complete even if some of its votes were lost in transit.
type Done struct {
	Node uint32
}

// Verdict is the referee's closing summary, broadcast to every node still
// connected when the run finalizes.
type Verdict struct {
	// Trials is the number of trials decided; Accepts of them accepted.
	Trials  uint32
	Accepts uint32
	// Missing is the total number of votes that never arrived (decided by
	// the quorum fallback instead).
	Missing uint32
}

func (Hello) Type() byte   { return TypeHello }
func (Vote) Type() byte    { return TypeVote }
func (Done) Type() byte    { return TypeDone }
func (Verdict) Type() byte { return TypeVerdict }

func (Hello) payloadSize() int   { return 12 }
func (Vote) payloadSize() int    { return 9 }
func (Done) payloadSize() int    { return 4 }
func (Verdict) payloadSize() int { return 12 }

func (h Hello) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, h.Node)
	dst = binary.BigEndian.AppendUint32(dst, h.K)
	return binary.BigEndian.AppendUint32(dst, h.Trials)
}

func (h *Hello) decodePayload(p []byte) error {
	h.Node = binary.BigEndian.Uint32(p[0:4])
	h.K = binary.BigEndian.Uint32(p[4:8])
	h.Trials = binary.BigEndian.Uint32(p[8:12])
	return nil
}

func (v Vote) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, v.Trial)
	dst = binary.BigEndian.AppendUint32(dst, v.Node)
	flag := byte(0)
	if v.Reject {
		flag = 1
	}
	return append(dst, flag)
}

func (v *Vote) decodePayload(p []byte) error {
	v.Trial = binary.BigEndian.Uint32(p[0:4])
	v.Node = binary.BigEndian.Uint32(p[4:8])
	switch p[8] {
	case 0:
		v.Reject = false
	case 1:
		v.Reject = true
	default:
		return fmt.Errorf("%w: vote flag %d", ErrFrameSize, p[8])
	}
	return nil
}

func (d Done) appendPayload(dst []byte) []byte {
	return binary.BigEndian.AppendUint32(dst, d.Node)
}

func (d *Done) decodePayload(p []byte) error {
	d.Node = binary.BigEndian.Uint32(p[0:4])
	return nil
}

func (v Verdict) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, v.Trials)
	dst = binary.BigEndian.AppendUint32(dst, v.Accepts)
	return binary.BigEndian.AppendUint32(dst, v.Missing)
}

func (v *Verdict) decodePayload(p []byte) error {
	v.Trials = binary.BigEndian.Uint32(p[0:4])
	v.Accepts = binary.BigEndian.Uint32(p[4:8])
	v.Missing = binary.BigEndian.Uint32(p[8:12])
	return nil
}

// AppendSession appends f's wire encoding bound to session and carrying tc
// to dst and returns the extended slice. Established types always carry
// the session field, 0 meaning unbound; the session control types carry
// none and ignore session. A zero tc adds no trace suffix.
//
// It writes the frame in a single pass: it reserves the 4-byte length
// prefix, writes the version and type bytes, appends the payload, the
// session field and the trace suffix, and then fills in the length.
func AppendSession(dst []byte, f Frame, session uint32, tc TraceContext) []byte {
	start := len(dst)
	typ := f.Type()
	flagged := typ
	if !tc.IsZero() {
		flagged |= traceFlag
	}
	dst = f.appendPayload(append(dst, 0, 0, 0, 0, Version, flagged))
	if hasSessionField(typ) {
		dst = binary.BigEndian.AppendUint32(dst, session)
	}
	if !tc.IsZero() {
		dst = binary.BigEndian.AppendUint64(dst, tc.Trace)
		dst = binary.BigEndian.AppendUint64(dst, tc.Span)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-headerBytes))
	return dst
}

// maxBodyBytes bounds a columnar frame's body without its trace suffix
// (version, type, payload and any session field), so the frame fits
// MaxBatchFrameBytes traced or not.
const maxBodyBytes = MaxBatchFrameBytes - traceContextBytes

// appendCapped appends f's encoding bound to session in one pass, then
// checks the body it wrote against maxBodyBytes; on overflow it returns
// dst unchanged with ErrOversize.
func appendCapped(dst []byte, f Frame, session uint32, tc TraceContext) ([]byte, error) {
	out := AppendSession(dst, f, session, tc)
	n := len(out) - len(dst) - headerBytes
	if !tc.IsZero() {
		n -= traceContextBytes
	}
	if n > maxBodyBytes {
		return dst, fmt.Errorf("%w: %d-byte %s frame body (limit %d)", ErrOversize, n, TypeName(f.Type()), maxBodyBytes)
	}
	return out, nil
}

// WriteFrame writes f's unbound, untraced encoding to w in one Write call
// (frames are small enough that partial writes only occur on a failing
// connection).
func WriteFrame(w io.Writer, f Frame) error {
	var buf [headerBytes + MaxFrameBytes]byte // every fixed-size frame fits
	if _, err := w.Write(AppendSession(buf[:0], f, 0, TraceContext{})); err != nil {
		return fmt.Errorf("wire: write %T: %w", f, err)
	}
	return nil
}

// DecodeScratch holds reusable frame values and buffers so a steady-state
// decode loop allocates nothing. Frames returned from a scratch-backed
// decode are only valid until the next decode with the same scratch; each
// connection handler owns its own scratch.
type DecodeScratch struct {
	hello   Hello
	vote    Vote
	done    Done
	verdict Verdict
	// batch and run back a VoteBatch frame, as rows or in run form.
	batch VoteBatch
	run   VoteRun
	// aggHello and partial back the aggregation-tier frame types.
	aggHello AggHello
	partial  PartialVerdict
	// open, accept, reject and report back the session control types.
	open   SessionOpen
	accept SessionAccept
	reject SessionReject
	report SessionReport
	// cols holds the decoded delta columns of a VoteBatch or
	// PartialVerdict before they are scattered into its rows.
	cols []uint32
}

// columns returns n scratch column values, reusing sc's buffer.
func (sc *DecodeScratch) columns(n int) []uint32 {
	if cap(sc.cols) < n {
		sc.cols = make([]uint32, n)
	}
	return sc.cols[:n]
}

// DecodeBodySession parses a complete frame body (version, type, payload,
// session field, optional trace context) as returned by Reader.ReadBody,
// returning the frame, its trace context and its session ID — 0 for an
// unbound frame and for the session control types, which carry any
// session identity inside their payload. With a non-nil scratch the frame
// aliases scratch storage and is only valid until the next decode with
// it; a nil scratch allocates.
func DecodeBodySession(body []byte, sc *DecodeScratch) (Frame, TraceContext, uint32, error) {
	if len(body) < 2 {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: %d-byte body, need ≥ 2", ErrFrameSize, len(body))
	}
	if body[0] != Version {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, body[0], Version)
	}
	base := body[1] &^ traceFlag
	if base < TypeHello || base > TypeSessionReport || base == typeRetiredSketch || base == typeRetiredBatch {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: type %d", ErrUnknownType, base)
	}
	if len(body) > FrameCap(base) {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: %d-byte %s frame (limit %d)",
			ErrOversize, len(body), TypeName(base), FrameCap(base))
	}
	payload := body[2:]
	var tc TraceContext
	if body[1]&traceFlag != 0 {
		if len(payload) < traceContextBytes {
			return nil, TraceContext{}, 0, fmt.Errorf("%w: traced %s frame with %d-byte body",
				ErrFrameSize, TypeName(base), len(body))
		}
		tail := payload[len(payload)-traceContextBytes:]
		tc.Trace = binary.BigEndian.Uint64(tail[:8])
		tc.Span = binary.BigEndian.Uint64(tail[8:])
		if tc.Trace == 0 {
			return nil, TraceContext{}, 0, fmt.Errorf("%w: zero trace ID", ErrTraceContext)
		}
		payload = payload[:len(payload)-traceContextBytes]
	}
	var session uint32
	if hasSessionField(base) {
		if len(payload) < sessionBytes {
			return nil, TraceContext{}, 0, fmt.Errorf("%w: %s frame missing its session field", ErrFrameSize, TypeName(base))
		}
		session = binary.BigEndian.Uint32(payload[len(payload)-sessionBytes:])
		payload = payload[:len(payload)-sessionBytes]
	}
	if sc == nil {
		sc = new(DecodeScratch)
	}
	f, err := sc.decode(base, payload)
	if err != nil {
		return nil, TraceContext{}, 0, err
	}
	return f, tc, session, nil
}

// decode parses the payload of a base-type t frame into sc's value for
// that type.
func (sc *DecodeScratch) decode(t byte, p []byte) (Frame, error) {
	var f fixedFrame
	switch t {
	case TypeHello:
		f = &sc.hello
	case TypeVote:
		f = &sc.vote
	case TypeDone:
		f = &sc.done
	case TypeVerdict:
		f = &sc.verdict
	case TypeAggHello:
		f = &sc.aggHello
	case TypeSessionOpen:
		f = &sc.open
	case TypeSessionAccept:
		f = &sc.accept
	case TypeSessionReject:
		f = &sc.reject
	case TypeVoteBatch:
		return sc.decodeBatch(p)
	case TypePartialVerdict:
		return &sc.partial, sc.partial.decodePayload(p, sc)
	default: // TypeSessionReport, the last type DecodeBodySession admits
		return &sc.report, sc.report.decodePayload(p)
	}
	// decodePayload writes every field of the fixed-shape payloads, so a
	// reused scratch value needs no reset.
	if len(p) != f.payloadSize() {
		return nil, fmt.Errorf("%w: %s payload %d bytes, want %d", ErrFrameSize, TypeName(t), len(p), f.payloadSize())
	}
	return f, f.decodePayload(p)
}

// BodyType returns the base frame type of an encoded frame body with the
// trace flag stripped, or 0 when the body is too short to carry one. It
// never validates the body — use it to route a frame before the full
// decode, never instead of it.
func BodyType(body []byte) byte {
	if len(body) < 2 {
		return 0
	}
	return body[1] &^ traceFlag
}

// SessionOf extracts the session ID a frame body is bound to without a
// full decode: the session field of an established type, or 0 for control
// frames, other versions, and bodies too short to carry the field (which
// the full decode will reject). Like BodyType it is a routing peek, not a
// validator.
func SessionOf(body []byte) uint32 {
	if len(body) < 2 || body[0] != Version || !hasSessionField(body[1]&^traceFlag) {
		return 0
	}
	end := len(body)
	if body[1]&traceFlag != 0 {
		end -= traceContextBytes
	}
	if end < 2+sessionBytes {
		return 0
	}
	return binary.BigEndian.Uint32(body[end-sessionBytes : end])
}

// Reader decodes a frame stream from an io.Reader with reusable buffers:
// an inline array covering every single-vote frame and a lazily-allocated,
// reused spill buffer for batch frames (bounded by MaxBatchFrameBytes).
type Reader struct {
	r   io.Reader
	big []byte
	buf [headerBytes + MaxFrameBytes]byte
}

// NewReader wraps r as a frame stream.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadFrame reads and decodes the next frame, dropping its trace context
// and session. io.EOF is returned unwrapped at a clean frame boundary; an
// EOF mid-frame surfaces as ErrTruncated.
func (r *Reader) ReadFrame() (Frame, error) {
	body, err := r.ReadBody()
	if err != nil {
		return nil, err
	}
	f, _, _, err := DecodeBodySession(body, nil)
	return f, err
}

// ReadBody reads the next frame's body into the reader's internal buffer
// and returns it without decoding. The slice is only valid until the next
// read call. Single-vote bodies land in a fixed inline array; batch-sized
// bodies use a second buffer that is allocated on first use and reused for
// the life of the reader, so steady-state reads allocate nothing.
func (r *Reader) ReadBody() ([]byte, error) {
	head := r.buf[:headerBytes]
	if _, err := io.ReadFull(r.r, head); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: EOF inside length prefix", ErrTruncated)
		}
		return nil, fmt.Errorf("wire: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(head)
	if n > MaxBatchFrameBytes {
		return nil, fmt.Errorf("%w: declared %d bytes (limit %d)", ErrOversize, n, MaxBatchFrameBytes)
	}
	if n < 2 {
		return nil, fmt.Errorf("%w: declared %d bytes, need ≥ 2", ErrFrameSize, n)
	}
	var body []byte
	if n <= MaxFrameBytes {
		body = r.buf[headerBytes : headerBytes+int(n)]
	} else {
		if cap(r.big) < int(n) {
			// Grow geometrically to the declared size: steady-state streams
			// reuse the buffer, and a reader of small batches never pays for
			// the full MaxBatchFrameBytes cap.
			want := 2 * cap(r.big)
			if want < int(n) {
				want = int(n)
			}
			if want > MaxBatchFrameBytes {
				want = MaxBatchFrameBytes
			}
			r.big = make([]byte, want)
		}
		body = r.big[:n]
	}
	if _, err := io.ReadFull(r.r, body); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: EOF inside %d-byte body", ErrTruncated, n)
		}
		return nil, fmt.Errorf("wire: read body: %w", err)
	}
	return body, nil
}
