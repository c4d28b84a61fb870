// Package wire is the cluster runtime's binary codec: a length-prefixed,
// versioned framing for the messages the 0-round protocols exchange over
// real connections — a node's Hello, its per-trial Vote (or collision
// Sketch), the Done marker closing its vote stream, and the referee's
// Verdict.
//
// Every frame on the wire is
//
//	[4-byte big-endian frame length][1-byte version][1-byte type][payload]
//
// where the length counts the version, type and payload bytes (not the
// prefix itself). Five versions are in play: version 1 frames carry the
// bare payload; version 2 frames append a 16-byte trace context (trace ID +
// span ID, both big-endian uint64, trace ID nonzero) that links the frame
// into the telemetry plane's distributed trace; version 3 frames carry the
// batch types (VoteBatch, and its compressed form) whose type byte's high
// bit flags an optional trace-context suffix; version 4 frames carry the
// aggregation-tier types (AggHello, PartialVerdict — partial.go) with the
// same high-bit trace flagging; version 5 frames carry the multi-tenant
// session context (session.go) — the session control types, and any
// established type bound to a nonzero session ID via a 4-byte suffix. The
// encoder stamps the lowest version that can represent a frame — untraced
// single-vote traffic is byte-identical to the pre-trace protocol, traced
// single-vote traffic is byte-identical to v2, session-0 traffic is
// byte-identical to v4 and below — and the decoder accepts all five,
// rejecting anything newer with ErrVersion. Each frame has exactly one
// valid version (batch types only at v3, aggregation types only at v4,
// session-bound and session-control frames only at v5, everything else at
// v1/v2), so every message keeps a single canonical byte representation.
// Trace context is observability metadata only: the referee's verdicts
// never depend on it.
//
// Single-vote frames are tiny and fixed-size per type; the decoder
// enforces both the per-type payload size and the MaxFrameBytes cap before
// reading a body, mirroring the simulator's CONGEST bandwidth check
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
// ErrUnknownType, ErrFrameSize, ErrTraceContext), which FuzzWireRoundTrip
// pins.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the current protocol version: version-5 frames carry the
// multi-tenant session context. The encoder stamps each frame at the
// lowest version that can represent it (see TraceVersion), so old frame
// types never encode at v3/v4/v5 and old decoders keep accepting
// untraced/traced single-vote traffic.
const Version = 5

// SessionVersion is the version byte of session-context frames: the
// session control types (SessionOpen, SessionAccept, SessionReject,
// SessionReport) and any established frame type carrying a nonzero
// session-ID suffix (session.go). They are only legal at this version and
// flag their optional trace suffix through the type byte like v3/v4.
const SessionVersion = 5

// BatchVersion is the version byte of batch frames (VoteBatch and its
// compressed form). Batch types are only legal at this version.
const BatchVersion = 3

// PartialVersion is the version byte of the aggregation-tier frames
// (AggHello, PartialVerdict). They are only legal at this version and
// flag their optional trace suffix through the type byte like v3.
const PartialVersion = 4

// TraceVersion is the version stamped on traced single-vote frames: the
// payload followed by a 16-byte TraceContext suffix. Untraced single-vote
// frames encode at MinVersion so pre-trace decoders still accept them.
const TraceVersion = 2

// MinVersion is the oldest protocol version the decoder accepts: the
// trace-free framing of the original cluster runtime.
const MinVersion = 1

// MaxFrameBytes caps the on-wire frame length (version + type + payload +
// optional trace context) of every single-vote frame type. All defined
// single-vote frames are ≤ 34 bytes; the cap leaves headroom while keeping
// the referee's per-connection buffer trivially bounded — the cluster
// analogue of the CONGEST per-edge bandwidth limit. Batch types have their
// own cap (MaxBatchFrameBytes); FrameCap resolves the bound per type.
const MaxFrameBytes = 64

// MaxBatchFrameBytes caps the on-wire length of a batch frame. It bounds
// MaxBatchVotes worst-case-encoded tuples (≤ 21 bytes each in sketch mode)
// with room for the trace suffix, while still keeping per-connection
// buffering small enough that 10⁴+ concurrent peers fit in memory.
const MaxBatchFrameBytes = 1 << 17

// FrameCap returns the on-wire frame-length cap (excluding the 4-byte
// prefix) for a frame type byte: MaxBatchFrameBytes for batch types,
// MaxFrameBytes for everything else (including unknown types, which are
// rejected before the cap matters).
func FrameCap(t byte) int {
	if t == TypeVoteBatch || t == TypeVoteBatchZ || t == TypePartialVerdict || t == TypeSessionReport {
		return MaxBatchFrameBytes
	}
	return MaxFrameBytes
}

// headerBytes is the length prefix size.
const headerBytes = 4

// traceContextBytes is the encoded size of a TraceContext suffix.
const traceContextBytes = 16

// TraceContext is the optional trace correlation suffix of a version-2
// frame: the sender's trace ID and the span that emitted the frame. A zero
// Trace means "absent" — such frames encode at MinVersion without the
// suffix, and the decoder rejects a version-2 frame whose trace ID is zero
// (ErrTraceContext) so every encoding has exactly one byte representation.
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
	// TypeSketch carries one node's raw collision statistic for one trial,
	// letting the referee derive the vote server-side (single-collision
	// testers: reject iff Collisions > 0).
	TypeSketch
	// TypeDone marks the end of a node's vote stream.
	TypeDone
	// TypeVerdict is the referee's closing summary to each node.
	TypeVerdict
	// TypeVoteBatch packs many (trial, node, vote) tuples — or sketch
	// tuples — into one delta/bit-packed frame (batch.go).
	TypeVoteBatch
	// TypeVoteBatchZ is a VoteBatch whose payload is block-compressed
	// (compress.go); only emitted when compression actually saves bytes.
	TypeVoteBatchZ
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

// traceFlag is the high bit of a BatchVersion frame's type byte: set when
// a 16-byte TraceContext suffix follows the payload. Single-vote versions
// signal tracing through the version byte instead.
const traceFlag = 0x80

// TypeName returns a short lowercase name for a frame type byte, for
// metric and span labels ("hello", "vote", ...; "type<N>" when unknown).
func TypeName(t byte) string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeVote:
		return "vote"
	case TypeSketch:
		return "sketch"
	case TypeDone:
		return "done"
	case TypeVerdict:
		return "verdict"
	case TypeVoteBatch:
		return "votebatch"
	case TypeVoteBatchZ:
		return "votebatchz"
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

// Codec errors. Decode and ReadFrame wrap these with positional detail;
// match with errors.Is.
var (
	// ErrTruncated marks a frame cut short: a header or body shorter than
	// its declared length.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrOversize marks a length prefix beyond MaxFrameBytes.
	ErrOversize = errors.New("wire: frame exceeds size limit")
	// ErrVersion marks a version byte outside MinVersion..Version, or a
	// frame type encoded at a version that is not its canonical one.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrUnknownType marks an unrecognized frame type byte.
	ErrUnknownType = errors.New("wire: unknown frame type")
	// ErrFrameSize marks a known frame type with a malformed payload
	// (wrong size, or a non-canonical batch encoding).
	ErrFrameSize = errors.New("wire: wrong payload size for frame type")
	// ErrTraceContext marks a traced frame whose trace context is
	// malformed (zero trace ID).
	ErrTraceContext = errors.New("wire: invalid trace context")
	// ErrSession marks a malformed session context: a zero session ID on a
	// version-5 session-suffixed frame (session 0 must encode at the
	// frame's classic version) or in a control frame requiring one.
	ErrSession = errors.New("wire: invalid session ID")
)

// Frame is one protocol message. Implementations are small value types;
// encoding is allocation-free via AppendTo.
type Frame interface {
	// Type returns the frame's type byte.
	Type() byte
	// payloadSize returns the exact encoded payload length. Only the
	// EncodedSize functions and the fixed-size decode path call it: the
	// encoders measure what they wrote instead.
	payloadSize() int
	// appendPayload appends the payload encoding to dst.
	appendPayload(dst []byte) []byte
}

// fixedFrame is a frame whose payload has one size per type — every type
// but the columnar VoteBatch, PartialVerdict and SessionReport, which
// decode through their own column codec.
type fixedFrame interface {
	Frame
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

// Sketch is the raw statistic behind a vote: the node's sample count and
// collision count for one trial. For single-collision testers the referee
// derives Reject = Collisions > 0, so Vote and Sketch submissions yield
// identical verdicts.
type Sketch struct {
	Trial uint32
	Node  uint32
	// Samples is the number of samples the node drew this trial.
	Samples uint32
	// Collisions is the number of colliding pairs among them.
	Collisions uint32
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
	// quorum policy instead).
	Missing uint32
}

func (Hello) Type() byte   { return TypeHello }
func (Vote) Type() byte    { return TypeVote }
func (Sketch) Type() byte  { return TypeSketch }
func (Done) Type() byte    { return TypeDone }
func (Verdict) Type() byte { return TypeVerdict }

func (Hello) payloadSize() int   { return 12 }
func (Vote) payloadSize() int    { return 9 }
func (Sketch) payloadSize() int  { return 16 }
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

func (s Sketch) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, s.Trial)
	dst = binary.BigEndian.AppendUint32(dst, s.Node)
	dst = binary.BigEndian.AppendUint32(dst, s.Samples)
	return binary.BigEndian.AppendUint32(dst, s.Collisions)
}

func (s *Sketch) decodePayload(p []byte) error {
	s.Trial = binary.BigEndian.Uint32(p[0:4])
	s.Node = binary.BigEndian.Uint32(p[4:8])
	s.Samples = binary.BigEndian.Uint32(p[8:12])
	s.Collisions = binary.BigEndian.Uint32(p[12:16])
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

// Append appends f's full wire encoding (length prefix, version, type,
// payload) to dst and returns the extended slice. Frames encoded this way
// carry no trace context and are stamped MinVersion — byte-identical to the
// pre-trace protocol.
func Append(dst []byte, f Frame) []byte {
	return AppendTraced(dst, f, TraceContext{})
}

// AppendTraced appends f's wire encoding carrying tc. A context with a zero
// trace ID is treated as absent and encodes exactly like Append; a nonzero
// one adds the 16-byte suffix — stamping single-vote frames at TraceVersion
// and setting the trace flag on batch frames (which are always stamped
// BatchVersion). Batch frames encode their raw (uncompressed) form here;
// use a BatchEncoder to opportunistically compress.
func AppendTraced(dst []byte, f Frame, tc TraceContext) []byte {
	return AppendSession(dst, f, 0, tc)
}

// frameVersion returns the one version byte a frame of type t encodes at
// when bound to session and carrying tc: SessionVersion for the session
// control types and for session-bound frames, BatchVersion for batches,
// PartialVersion for the aggregation types, and MinVersion (TraceVersion
// when traced) for the single-vote types.
func frameVersion(t byte, session uint32, tc TraceContext) byte {
	switch {
	case t >= TypeSessionOpen || session != 0:
		return SessionVersion
	case t == TypeVoteBatch || t == TypeVoteBatchZ:
		return BatchVersion
	case t == TypeAggHello || t == TypePartialVerdict:
		return PartialVersion
	case !tc.IsZero():
		return TraceVersion
	}
	return MinVersion
}

// appendFrame writes one frame in a single pass: it reserves the 4-byte
// length prefix, writes the version and type bytes, appends the payload,
// the session suffix (nonzero session only) and the trace suffix (nonzero
// trace only), and then fills in the length. From BatchVersion on, the
// type byte's high bit flags the trace suffix; v1/v2 frames signal it
// through the version byte instead. The payload producer is a callback so
// frame payloads, pre-encoded raw batches and compressed batches share
// the framing.
func appendFrame(dst []byte, version, typ byte, payload func([]byte) []byte, session uint32, tc TraceContext) []byte {
	start := len(dst)
	if !tc.IsZero() && version >= BatchVersion {
		typ |= traceFlag
	}
	dst = payload(append(dst, 0, 0, 0, 0, version, typ))
	if session != 0 {
		dst = binary.BigEndian.AppendUint32(dst, session)
	}
	if !tc.IsZero() {
		dst = binary.BigEndian.AppendUint64(dst, tc.Trace)
		dst = binary.BigEndian.AppendUint64(dst, tc.Span)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-headerBytes))
	return dst
}

// maxPayloadBytes bounds a columnar payload (VoteBatch, PartialVerdict,
// SessionReport) together with any session suffix, so the full frame body
// (version + type + payload + session + trace suffix) fits
// MaxBatchFrameBytes.
const maxPayloadBytes = MaxBatchFrameBytes - 2 - traceContextBytes

// checkPayload enforces maxPayloadBytes on a size-byte payload of type t
// bound to session.
func checkPayload(t byte, size int, session uint32) error {
	limit := maxPayloadBytes
	if session != 0 {
		limit -= sessionBytes
	}
	if size > limit {
		return fmt.Errorf("%w: %d-byte %s payload (limit %d)", ErrOversize, size, TypeName(t), limit)
	}
	return nil
}

// appendCapped appends f's encoding bound to session in one pass, then
// checks the payload it wrote against maxPayloadBytes; on overflow it
// returns dst unchanged with ErrOversize. Session control frames take no
// suffix, so their callers pass session 0.
func appendCapped(dst []byte, f Frame, session uint32, tc TraceContext) ([]byte, error) {
	out := AppendSession(dst, f, session, tc)
	size := len(out) - len(dst) - headerBytes - 2
	if session != 0 {
		size -= sessionBytes
	}
	if !tc.IsZero() {
		size -= traceContextBytes
	}
	if err := checkPayload(f.Type(), size, session); err != nil {
		return dst, err
	}
	return out, nil
}

// EncodedSize returns the full untraced on-wire size of f including the
// length prefix.
func EncodedSize(f Frame) int { return headerBytes + 2 + f.payloadSize() }

// EncodedSizeTraced returns the on-wire size of f when carrying tc.
func EncodedSizeTraced(f Frame, tc TraceContext) int {
	if tc.IsZero() {
		return EncodedSize(f)
	}
	return EncodedSize(f) + traceContextBytes
}

// Decode parses one frame from the front of b, returning the frame and the
// number of bytes consumed (any trace context is validated but dropped; use
// DecodeTraced to keep it). An incomplete buffer returns ErrTruncated (a
// stream reader should read more and retry); a malformed one returns
// ErrOversize, ErrVersion, ErrUnknownType, ErrFrameSize or ErrTraceContext.
func Decode(b []byte) (Frame, int, error) {
	f, _, n, err := DecodeTraced(b)
	return f, n, err
}

// DecodeTraced parses one frame and its trace context from the front of b.
// The context is zero for version-1 frames.
func DecodeTraced(b []byte) (Frame, TraceContext, int, error) {
	if len(b) < headerBytes {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(b))
	}
	n := binary.BigEndian.Uint32(b)
	if n > MaxBatchFrameBytes {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: declared %d bytes (limit %d)", ErrOversize, n, MaxBatchFrameBytes)
	}
	if n < 2 {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: declared %d bytes, need ≥ 2", ErrFrameSize, n)
	}
	total := headerBytes + int(n)
	if len(b) < total {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: have %d of %d bytes", ErrTruncated, len(b), total)
	}
	f, tc, err := decodeBody(b[headerBytes:total], nil)
	if err != nil {
		return nil, TraceContext{}, 0, err
	}
	return f, tc, total, nil
}

// DecodeScratch holds reusable frame values and buffers so a steady-state
// decode loop allocates nothing. Frames returned from a scratch-backed
// decode are only valid until the next decode with the same scratch; each
// connection handler owns its own scratch.
type DecodeScratch struct {
	hello   Hello
	vote    Vote
	sketch  Sketch
	done    Done
	verdict Verdict
	batch   VoteBatch
	// aggHello and partial back the aggregation-tier frame types.
	aggHello AggHello
	partial  PartialVerdict
	// open, accept, reject and report back the session control types.
	open   SessionOpen
	accept SessionAccept
	reject SessionReject
	report SessionReport
	// zbuf holds a decompressed batch payload between decodes.
	zbuf []byte
	// cols holds the decoded delta columns of a VoteBatch or
	// PartialVerdict before they are scattered into its rows.
	cols []uint64
}

// columns returns n scratch column values, reusing sc's buffer; a nil
// scratch allocates.
func (sc *DecodeScratch) columns(n int) []uint64 {
	if sc == nil {
		return make([]uint64, n)
	}
	if cap(sc.cols) < n {
		sc.cols = make([]uint64, n)
	}
	return sc.cols[:n]
}

// decodeBody parses version, type, payload and optional trace context from
// a complete frame body, validating but dropping any session context. With
// a non-nil scratch the returned frame aliases scratch storage instead of
// allocating.
func decodeBody(body []byte, sc *DecodeScratch) (Frame, TraceContext, error) {
	f, tc, _, err := decodeBodyAll(body, sc)
	return f, tc, err
}

// scratchSingleFrame returns the scratch-held value for a single-vote
// frame type (nil scratch allocates). The scratch values avoid a per-frame
// allocation on the referee's hot decode loop; decodePayload writes every
// field (all payloads are fixed-shape), so no reset between reuses is
// needed.
func scratchSingleFrame(t byte, sc *DecodeScratch) fixedFrame {
	if sc == nil {
		switch t {
		case TypeHello:
			return &Hello{}
		case TypeVote:
			return &Vote{}
		case TypeSketch:
			return &Sketch{}
		case TypeDone:
			return &Done{}
		default:
			return &Verdict{}
		}
	}
	switch t {
	case TypeHello:
		return &sc.hello
	case TypeVote:
		return &sc.vote
	case TypeSketch:
		return &sc.sketch
	case TypeDone:
		return &sc.done
	default:
		return &sc.verdict
	}
}

// decodeBodyAll is the full-fidelity body decoder: frame, trace context
// and session ID (zero below SessionVersion and for control frames, which
// carry any session identity in their payload instead).
func decodeBodyAll(body []byte, sc *DecodeScratch) (Frame, TraceContext, uint32, error) {
	v := body[0]
	if v < MinVersion || v > Version {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: got %d, want %d..%d", ErrVersion, v, MinVersion, Version)
	}
	switch v {
	case BatchVersion:
		f, tc, err := decodeBatchBody(body, sc)
		return f, tc, 0, err
	case PartialVersion:
		f, tc, err := decodePartialBody(body, sc)
		return f, tc, 0, err
	case SessionVersion:
		return decodeSessionBody(body, sc)
	}
	var f fixedFrame
	switch t := body[1]; t {
	case TypeHello, TypeVote, TypeSketch, TypeDone, TypeVerdict:
		f = scratchSingleFrame(t, sc)
	case TypeVoteBatch, TypeVoteBatchZ:
		return nil, TraceContext{}, 0, fmt.Errorf("%w: batch type %d requires v%d, got v%d",
			ErrVersion, t, BatchVersion, v)
	case TypeAggHello, TypePartialVerdict:
		return nil, TraceContext{}, 0, fmt.Errorf("%w: aggregation type %d requires v%d, got v%d",
			ErrVersion, t, PartialVersion, v)
	case TypeSessionOpen, TypeSessionAccept, TypeSessionReject, TypeSessionReport:
		return nil, TraceContext{}, 0, fmt.Errorf("%w: session type %d requires v%d, got v%d",
			ErrVersion, t, SessionVersion, v)
	default:
		return nil, TraceContext{}, 0, fmt.Errorf("%w: type %d", ErrUnknownType, t)
	}
	payload := body[2:]
	var tc TraceContext
	if v >= TraceVersion {
		// Version 2 requires the trace-context suffix.
		want := f.payloadSize() + traceContextBytes
		if len(payload) != want {
			return nil, TraceContext{}, 0, fmt.Errorf("%w: type %d v%d payload %d bytes, want %d",
				ErrFrameSize, body[1], v, len(payload), want)
		}
		tail := payload[f.payloadSize():]
		tc.Trace = binary.BigEndian.Uint64(tail[:8])
		tc.Span = binary.BigEndian.Uint64(tail[8:])
		if tc.Trace == 0 {
			return nil, TraceContext{}, 0, fmt.Errorf("%w: zero trace ID on a v%d frame", ErrTraceContext, v)
		}
		payload = payload[:f.payloadSize()]
	} else if len(payload) != f.payloadSize() {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: type %d payload %d bytes, want %d",
			ErrFrameSize, body[1], len(payload), f.payloadSize())
	}
	if err := f.decodePayload(payload); err != nil {
		return nil, TraceContext{}, 0, err
	}
	return f, tc, 0, nil
}

// decodeBatchBody parses a BatchVersion frame body: trace flag in the type
// byte, batch payload (optionally compressed), optional trace suffix.
func decodeBatchBody(body []byte, sc *DecodeScratch) (Frame, TraceContext, error) {
	t := body[1]
	base := t &^ traceFlag
	if base != TypeVoteBatch && base != TypeVoteBatchZ {
		if base >= TypeHello && base <= TypeSessionReport {
			// Every type has exactly one valid version; re-encoding another
			// type at v3 would break the canonical-bytes invariant.
			return nil, TraceContext{}, fmt.Errorf("%w: type %d not valid at v%d", ErrVersion, base, BatchVersion)
		}
		return nil, TraceContext{}, fmt.Errorf("%w: type %d", ErrUnknownType, base)
	}
	if len(body) > FrameCap(base) {
		return nil, TraceContext{}, fmt.Errorf("%w: %d-byte %s frame (limit %d)",
			ErrOversize, len(body), TypeName(base), FrameCap(base))
	}
	payload := body[2:]
	var tc TraceContext
	if t&traceFlag != 0 {
		if len(payload) < traceContextBytes {
			return nil, TraceContext{}, fmt.Errorf("%w: traced %s frame with %d-byte body",
				ErrFrameSize, TypeName(base), len(body))
		}
		tail := payload[len(payload)-traceContextBytes:]
		tc.Trace = binary.BigEndian.Uint64(tail[:8])
		tc.Span = binary.BigEndian.Uint64(tail[8:])
		if tc.Trace == 0 {
			return nil, TraceContext{}, fmt.Errorf("%w: zero trace ID on a v%d frame", ErrTraceContext, BatchVersion)
		}
		payload = payload[:len(payload)-traceContextBytes]
	}
	vb, err := decodeBatchPayload(base, payload, sc)
	if err != nil {
		return nil, TraceContext{}, err
	}
	return vb, tc, nil
}

// decodeBatchPayload parses a raw or compressed batch payload (shared by
// the v3 and v5 decode paths).
func decodeBatchPayload(base byte, payload []byte, sc *DecodeScratch) (*VoteBatch, error) {
	var vb *VoteBatch
	if sc != nil {
		vb = &sc.batch
	} else {
		vb = &VoteBatch{}
	}
	if base == TypeVoteBatch {
		vb.Compressed, vb.Saved = false, 0
		if err := vb.decodePayload(payload, sc); err != nil {
			return nil, err
		}
		return vb, nil
	}
	raw, saved, err := decodeZPayload(payload, sc)
	if err != nil {
		return nil, err
	}
	if err := vb.decodePayload(raw, sc); err != nil {
		return nil, err
	}
	vb.Compressed, vb.Saved = true, saved
	return vb, nil
}

// WriteFrame writes f's encoding to w in one Write call (frames are small
// enough that partial writes only occur on a failing connection).
func WriteFrame(w io.Writer, f Frame) error {
	return WriteFrameTraced(w, f, TraceContext{})
}

// WriteFrameTraced writes f's encoding carrying tc to w in one Write call.
func WriteFrameTraced(w io.Writer, f Frame, tc TraceContext) error {
	buf := make([]byte, 0, EncodedSizeTraced(f, tc))
	buf = AppendTraced(buf, f, tc)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("wire: write %T: %w", f, err)
	}
	return nil
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

// ReadFrame reads and decodes the next frame, dropping any trace context.
// io.EOF is returned unwrapped at a clean frame boundary; an EOF mid-frame
// surfaces as ErrTruncated.
func (r *Reader) ReadFrame() (Frame, error) {
	f, _, err := r.ReadFrameTraced()
	return f, err
}

// ReadFrameTraced reads and decodes the next frame along with its trace
// context (zero for version-1 frames).
func (r *Reader) ReadFrameTraced() (Frame, TraceContext, error) {
	body, err := r.ReadBody()
	if err != nil {
		return nil, TraceContext{}, err
	}
	return DecodeBody(body)
}

// DecodeBody parses a complete frame body (version, type, payload, optional
// trace context) as returned by Reader.ReadBody. Callers that want to time
// decoding separately from blocking I/O use ReadBody + DecodeBody; the
// fused form is ReadFrameTraced.
func DecodeBody(body []byte) (Frame, TraceContext, error) {
	return decodeBody(body, nil)
}

// DecodeBodyScratch is DecodeBody with caller-owned scratch: the returned
// frame aliases scratch storage, so steady-state decode allocates nothing.
// The frame is only valid until the next decode with the same scratch.
func DecodeBodyScratch(body []byte, sc *DecodeScratch) (Frame, TraceContext, error) {
	return decodeBody(body, sc)
}

// DecodeBodySession is the session-aware form of DecodeBodyScratch: it
// additionally returns the frame's session ID — zero for frames below
// SessionVersion and for the session control types, which carry any
// session identity inside their payload. Scratch may be nil.
func DecodeBodySession(body []byte, sc *DecodeScratch) (Frame, TraceContext, uint32, error) {
	return decodeBodyAll(body, sc)
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
