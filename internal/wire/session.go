// Session frames: the multi-tenant serving layer's control protocol, which
// lets one long-running referee process multiplex many concurrent testing
// sessions over a single listener. A client asks for a session with
// SessionOpen; the service answers SessionAccept (carrying the session ID
// every frame of the session must then carry in its session field) or a
// typed SessionReject, and closes the session with a columnar
// SessionReport. The four control types carry any session identity inside
// their payload, so unlike the established types they take no session
// field (wire.go).
package wire

import (
	"encoding/binary"
	"fmt"
)

// MaxReportTrials caps the per-trial entries one SessionReport may carry.
// Worst-case encoding (adversarial values, ≤ 16 bytes per trial) stays
// under MaxBatchFrameBytes with room for the trace suffix.
const MaxReportTrials = 8192

// Session decision-rule identifiers carried by SessionOpen. The service
// reconstructs the referee's rule from the (Rule, Thresh) pair; unknown
// values are rejected at admission (RejectRule), not at decode, so the
// reject path can name the offending byte.
const (
	// RuleAND is the AND rule: accept iff no node rejects.
	RuleAND = byte(iota + 1)
	// RuleThreshold is the threshold rule: reject iff at least Thresh
	// nodes reject.
	RuleThreshold
)

// Typed admission-rejection reasons carried by SessionReject.
const (
	// RejectSessions: the service's concurrent-session quota is full.
	RejectSessions = byte(iota + 1)
	// RejectBudget: the tenant's in-flight vote budget is exhausted.
	RejectBudget
	// RejectShape: the requested shape is malformed (zero K or Trials).
	RejectShape
	// RejectRule: the rule byte is not a known decision rule.
	RejectRule

	rejectReasonMax = RejectRule
)

// RejectReasonName returns a short lowercase name for a rejection reason
// byte ("sessions", "budget", ...; "reason<N>" when unknown).
func RejectReasonName(r byte) string {
	switch r {
	case RejectSessions:
		return "sessions"
	case RejectBudget:
		return "budget"
	case RejectShape:
		return "shape"
	case RejectRule:
		return "rule"
	default:
		return fmt.Sprintf("reason%d", r)
	}
}

// SessionOpen asks the service to admit a new testing session. It carries
// the full session shape so the service can build an isolated referee —
// rule, trial count and seed included — before any node connects.
type SessionOpen struct {
	// Tenant identifies the requesting tenant for quota accounting.
	Tenant uint32
	// K and Trials are the session shape, as in Hello.
	K      uint32
	Trials uint32
	// Seed is the session's base seed (provenance; votes are a pure
	// function of (Seed, trial, node) on the client side).
	Seed uint64
	// Rule selects the decision rule (RuleAND, RuleThreshold).
	Rule byte
	// Thresh is the threshold rule's T; zero for rules without one.
	Thresh uint32
}

// SessionAccept is the service's admission grant: the session ID every
// subsequent frame of the session must carry.
type SessionAccept struct {
	// Session is the granted session ID, never zero.
	Session uint32
	// Tenant echoes the request's tenant.
	Tenant uint32
}

// SessionReject is the service's typed admission denial.
type SessionReject struct {
	// Tenant echoes the request's tenant.
	Tenant uint32
	// Reason is one of the Reject* constants.
	Reason byte
}

// SessionReport is the service's closing summary to the session opener:
// the full per-trial tally, columnar like PartialVerdict. The opener
// reconstructs the session report from it; transport statistics are
// deliberately absent so reports compare byte-identical across transports.
type SessionReport struct {
	// Session identifies the finished session.
	Session uint32
	// K is the session's network size.
	K uint32
	// Verdicts holds the per-trial network verdict (true = accept); its
	// length is the trial count, 1..MaxReportTrials.
	Verdicts []bool
	// Rejects, Votes and Missing are per-trial counts: rejecting votes,
	// votes seen, and votes never seen (quorum-decided trials only).
	// Per trial, Rejects ≤ Votes and Votes + Missing ≤ K.
	Rejects []uint32
	Votes   []uint32
	Missing []uint32
}

func (SessionOpen) Type() byte   { return TypeSessionOpen }
func (SessionAccept) Type() byte { return TypeSessionAccept }
func (SessionReject) Type() byte { return TypeSessionReject }
func (SessionReport) Type() byte { return TypeSessionReport }

func (SessionOpen) payloadSize() int   { return 26 }
func (SessionAccept) payloadSize() int { return 8 }
func (SessionReject) payloadSize() int { return 5 }

func (o SessionOpen) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, o.Tenant)
	dst = binary.BigEndian.AppendUint32(dst, o.K)
	dst = binary.BigEndian.AppendUint32(dst, o.Trials)
	dst = binary.BigEndian.AppendUint64(dst, o.Seed)
	dst = append(dst, o.Rule)
	dst = binary.BigEndian.AppendUint32(dst, o.Thresh)
	return append(dst, 0) // flags: zero (reserved)
}

func (o *SessionOpen) decodePayload(p []byte) error {
	o.Tenant = binary.BigEndian.Uint32(p[0:4])
	o.K = binary.BigEndian.Uint32(p[4:8])
	o.Trials = binary.BigEndian.Uint32(p[8:12])
	o.Seed = binary.BigEndian.Uint64(p[12:20])
	o.Rule = p[20]
	o.Thresh = binary.BigEndian.Uint32(p[21:25])
	if p[25] != 0 {
		return fmt.Errorf("%w: sessionopen flags %#x", ErrFrameSize, p[25])
	}
	return nil
}

func (a SessionAccept) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, a.Session)
	return binary.BigEndian.AppendUint32(dst, a.Tenant)
}

func (a *SessionAccept) decodePayload(p []byte) error {
	a.Session = binary.BigEndian.Uint32(p[0:4])
	a.Tenant = binary.BigEndian.Uint32(p[4:8])
	if a.Session == 0 {
		return fmt.Errorf("%w: sessionaccept with session 0", ErrSession)
	}
	return nil
}

func (r SessionReject) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, r.Tenant)
	return append(dst, r.Reason)
}

func (r *SessionReject) decodePayload(p []byte) error {
	r.Tenant = binary.BigEndian.Uint32(p[0:4])
	r.Reason = p[4]
	if r.Reason == 0 || r.Reason > rejectReasonMax {
		return fmt.Errorf("%w: sessionreject reason %d", ErrFrameSize, r.Reason)
	}
	return nil
}

func (r SessionReport) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, r.Session)
	dst = binary.BigEndian.AppendUint32(dst, r.K)
	dst = binary.AppendUvarint(dst, uint64(len(r.Verdicts)))
	nb := (len(r.Verdicts) + 7) / 8
	base := len(dst)
	for i := 0; i < nb; i++ {
		dst = append(dst, 0)
	}
	for i := range r.Verdicts {
		if r.Verdicts[i] {
			dst[base+i>>3] |= 1 << (i & 7)
		}
	}
	for _, col := range [][]uint32{r.Rejects, r.Votes, r.Missing} {
		dst = binary.AppendUvarint(dst, uint64(col[0]))
		for i := 1; i < len(col); i++ {
			dst = appendDelta(dst, col[i-1], col[i])
		}
	}
	return dst
}

func (r *SessionReport) decodePayload(p []byte) error {
	if len(p) < 10 {
		return fmt.Errorf("%w: %d-byte report payload", ErrFrameSize, len(p))
	}
	r.Session = binary.BigEndian.Uint32(p[0:4])
	if r.Session == 0 {
		return fmt.Errorf("%w: sessionreport with session 0", ErrSession)
	}
	r.K = binary.BigEndian.Uint32(p[4:8])
	cnt, off, err := readUvarint(p, 8)
	if err != nil {
		return err
	}
	if cnt == 0 {
		return fmt.Errorf("%w: empty session report", ErrFrameSize)
	}
	if cnt > MaxReportTrials {
		return fmt.Errorf("%w: report of %d trials (limit %d)", ErrOversize, cnt, MaxReportTrials)
	}
	count := int(cnt)
	if cap(r.Verdicts) < count {
		r.Verdicts = make([]bool, count)
		r.Rejects = make([]uint32, count)
		r.Votes = make([]uint32, count)
		r.Missing = make([]uint32, count)
	} else {
		r.Verdicts = r.Verdicts[:count]
		r.Rejects = r.Rejects[:count]
		r.Votes = r.Votes[:count]
		r.Missing = r.Missing[:count]
	}
	nb := (count + 7) / 8
	if len(p)-off < nb {
		return fmt.Errorf("%w: report bitset truncated", ErrFrameSize)
	}
	bits := p[off : off+nb]
	if rem := count & 7; rem != 0 && bits[nb-1]>>rem != 0 {
		return fmt.Errorf("%w: nonzero trailing report bits", ErrFrameSize)
	}
	for i := range r.Verdicts {
		r.Verdicts[i] = bits[i>>3]>>(i&7)&1 == 1
	}
	off += nb
	for _, col := range [][]uint32{r.Rejects, r.Votes, r.Missing} {
		if off, err = decodeColumn(p, off, col); err != nil {
			return err
		}
	}
	if off != len(p) {
		return fmt.Errorf("%w: %d trailing report bytes", ErrFrameSize, len(p)-off)
	}
	for t := 0; t < count; t++ {
		if r.Rejects[t] > r.Votes[t] {
			return fmt.Errorf("%w: report trial %d with %d rejects over %d votes", ErrFrameSize, t, r.Rejects[t], r.Votes[t])
		}
		if uint64(r.Votes[t])+uint64(r.Missing[t]) > uint64(r.K) {
			return fmt.Errorf("%w: report trial %d with %d votes + %d missing over k=%d",
				ErrFrameSize, t, r.Votes[t], r.Missing[t], r.K)
		}
	}
	return nil
}

// AppendSessionReport appends r's wire encoding carrying tc to dst,
// enforcing the trial-count and payload-size caps the decoder will apply;
// on error dst is returned unchanged.
func AppendSessionReport(dst []byte, r *SessionReport, tc TraceContext) ([]byte, error) {
	n := len(r.Verdicts)
	if n == 0 {
		return dst, fmt.Errorf("wire: empty session report")
	}
	if n > MaxReportTrials {
		return dst, fmt.Errorf("%w: report of %d trials (limit %d)", ErrOversize, n, MaxReportTrials)
	}
	if len(r.Rejects) != n || len(r.Votes) != n || len(r.Missing) != n {
		return dst, fmt.Errorf("wire: ragged session report columns")
	}
	return appendCapped(dst, r, 0, tc)
}
