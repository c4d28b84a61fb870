package congest

import (
	"encoding/binary"
	"fmt"
)

// Wire format: one type byte followed by fixed-width little-endian fields.
// Every message fits in 16 bytes, the simulator's CONGEST budget of
// B = Θ(log n) bits per edge per round.
type msgType byte

const (
	// msgAnnounce carries (root, dist): "join my BFS tree for root".
	msgAnnounce msgType = iota + 1
	// msgAccept answers an announce: the sender becomes a child for root.
	msgAccept
	// msgReject answers an announce: the sender declines for root.
	msgReject
	// msgComplete is the echo: the sender's subtree for root is complete,
	// carrying the subtree size.
	msgComplete
	// msgStart begins the parameter broadcast and token pipeline, carrying
	// the protocol parameters (τ, T) chosen by the root — which allows the
	// root to derive them from the discovered network size when k is not
	// known in advance.
	msgStart
	// msgCount is the second convergecast: c(v), the number of tokens the
	// sender will forward up (computable only once τ is known).
	msgCount
	// msgToken carries one sample value up the tree.
	msgToken
	// msgTokDone signals the sender has forwarded all its c(v) tokens.
	msgTokDone
	// msgReport aggregates (rejecting, total) virtual-node counts up the
	// tree.
	msgReport
	// msgDecision broadcasts the root's verdict (1 = accept) down the tree.
	msgDecision
)

// message is the decoded form of a wire payload.
type message struct {
	typ msgType
	// a, b are the two generic fields: (root, dist) for announce,
	// (root, 0) for accept/reject, (root, size) for complete,
	// (tau, T) for start, (c, 0) for count, (value, 0) for token,
	// (rejects, virtuals) for report, (accept, 0) for decision.
	a, b uint64
}

// maxMessageBytes is the longest encoding: a type byte and two 4-byte
// fields, or a type byte and one 8-byte token.
const maxMessageBytes = 9

// appendEncode appends m's wire form to buf.
func appendEncode(buf []byte, m message) []byte {
	buf = append(buf, byte(m.typ))
	switch m.typ {
	case msgTokDone:
		return buf
	case msgToken:
		return binary.LittleEndian.AppendUint64(buf, m.a)
	default:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.a))
		return binary.LittleEndian.AppendUint32(buf, uint32(m.b))
	}
}

func decode(payload []byte) (message, error) {
	if len(payload) == 0 {
		return message{}, fmt.Errorf("congest: empty payload")
	}
	m := message{typ: msgType(payload[0])}
	switch m.typ {
	case msgTokDone:
		if len(payload) != 1 {
			return message{}, fmt.Errorf("congest: bad %d-byte control message", len(payload))
		}
	case msgToken:
		if len(payload) != 9 {
			return message{}, fmt.Errorf("congest: bad %d-byte token", len(payload))
		}
		m.a = binary.LittleEndian.Uint64(payload[1:])
	case msgAnnounce, msgAccept, msgReject, msgComplete, msgStart, msgCount, msgReport, msgDecision:
		if len(payload) != 9 {
			return message{}, fmt.Errorf("congest: bad %d-byte message type %d", len(payload), m.typ)
		}
		m.a = uint64(binary.LittleEndian.Uint32(payload[1:]))
		m.b = uint64(binary.LittleEndian.Uint32(payload[5:]))
	default:
		return message{}, fmt.Errorf("congest: unknown message type %d", m.typ)
	}
	return m, nil
}
