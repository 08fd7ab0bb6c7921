package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Wire format: a 1-byte kind, 4-byte From, 4-byte To header, then a
// kind-specific payload. All integers are big-endian; floats are IEEE-754
// bits. The format is fixed-size per kind, which keeps the byte accounting
// of the overhead study exact and the codec branch-light.

const headerSize = 1 + 4 + 4

// ErrShortBuffer is returned by Decode when the input is truncated.
var ErrShortBuffer = errors.New("msg: short buffer")

// ErrBadKind is returned by Decode for an unknown kind byte.
var ErrBadKind = errors.New("msg: unknown message kind")

func payloadSize(k Kind) int {
	switch k {
	case KindNeighNumRequest, KindValueRequest:
		return 0
	case KindNeighNumResponse:
		return 4
	case KindValueResponse:
		return 8 + 8 + 4
	case KindQuery:
		return 8 + 4 + 1 + 1
	case KindQueryHit:
		return 8 + 4 + 4 + 1
	default:
		return -1
	}
}

func encodedSize(m *Message) int {
	p := payloadSize(m.Kind)
	if p < 0 {
		return 0
	}
	return headerSize + p
}

// Encode appends the wire form of m to dst and returns the extended slice.
// It panics on an invalid kind: building such a message is a logic error.
func Encode(dst []byte, m *Message) []byte {
	p := payloadSize(m.Kind)
	if p < 0 {
		panic(fmt.Sprintf("msg: encode invalid kind %v", m.Kind))
	}
	dst = append(dst, byte(m.Kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.From))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.To))
	switch m.Kind {
	case KindNeighNumResponse:
		dst = binary.BigEndian.AppendUint32(dst, m.NeighNum)
	case KindValueResponse:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Capacity))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Age))
		dst = binary.BigEndian.AppendUint32(dst, m.NeighNum)
	case KindQuery:
		dst = binary.BigEndian.AppendUint64(dst, uint64(m.Query))
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.Object))
		dst = append(dst, m.TTL, m.Hops)
	case KindQueryHit:
		dst = binary.BigEndian.AppendUint64(dst, uint64(m.Query))
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.Object))
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.Provider))
		dst = append(dst, m.Hops)
	}
	return dst
}

// Decode parses one message from the front of src, returning the message
// and the number of bytes consumed.
func Decode(src []byte) (Message, int, error) {
	if len(src) < headerSize {
		return Message{}, 0, ErrShortBuffer
	}
	k := Kind(src[0])
	p := payloadSize(k)
	if p < 0 {
		return Message{}, 0, ErrBadKind
	}
	total := headerSize + p
	if len(src) < total {
		return Message{}, 0, ErrShortBuffer
	}
	m := Message{
		Kind: k,
		From: PeerID(binary.BigEndian.Uint32(src[1:5])),
		To:   PeerID(binary.BigEndian.Uint32(src[5:9])),
	}
	body := src[headerSize:total]
	switch k {
	case KindNeighNumResponse:
		m.NeighNum = binary.BigEndian.Uint32(body)
	case KindValueResponse:
		m.Capacity = math.Float64frombits(binary.BigEndian.Uint64(body[0:8]))
		m.Age = math.Float64frombits(binary.BigEndian.Uint64(body[8:16]))
		m.NeighNum = binary.BigEndian.Uint32(body[16:20])
	case KindQuery:
		m.Query = QueryID(binary.BigEndian.Uint64(body[0:8]))
		m.Object = ObjectID(binary.BigEndian.Uint32(body[8:12]))
		m.TTL = body[12]
		m.Hops = body[13]
	case KindQueryHit:
		m.Query = QueryID(binary.BigEndian.Uint64(body[0:8]))
		m.Object = ObjectID(binary.BigEndian.Uint32(body[8:12]))
		m.Provider = PeerID(binary.BigEndian.Uint32(body[12:16]))
		m.Hops = body[16]
	}
	return m, total, nil
}
