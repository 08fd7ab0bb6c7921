// Package msg defines the protocol messages of the super-peer overlay:
// the two DLM information-exchange pairs from the paper (Table 1) plus the
// query-routing messages of the underlying Gnutella-style protocol.
//
// Messages carry a compact binary wire format so the overhead study of
// the paper's §6 can account in bytes, not just message counts.
package msg

import "fmt"

// Kind enumerates the protocol message types.
type Kind uint8

// Message kinds. The first four are DLM's two message pairs (paper
// Table 1); the rest belong to the search substrate.
const (
	KindInvalid Kind = iota
	// KindNeighNumRequest asks a super-peer for its current number of
	// leaf neighbors (sent leaf -> super by a refresh of a super already
	// in G(l)).
	KindNeighNumRequest
	// KindNeighNumResponse carries l_nn back to the requesting leaf.
	KindNeighNumResponse
	// KindValueRequest is a bare ask for the receiver's Value frame (sent
	// leaf -> super by a refresh of a super outside G(l), and by either
	// side when the other's Value frame is overdue). It carries nothing.
	KindValueRequest
	// KindValueResponse is the Value frame: its sender's capacity, age and
	// leaf degree (l_nn when the sender is a super). Each side of a new
	// leaf-super link sends one unasked, and it answers a ValueRequest.
	KindValueResponse
	// KindQuery is a flooded content query.
	KindQuery
	// KindQueryHit travels the inverse query path back to the source.
	KindQueryHit
	kindSentinel // keep last
)

// NumKinds is the number of valid message kinds.
const NumKinds = int(kindSentinel)

var kindNames = [...]string{
	KindInvalid:          "invalid",
	KindNeighNumRequest:  "neigh_num_request",
	KindNeighNumResponse: "neigh_num_response",
	KindValueRequest:     "value_request",
	KindValueResponse:    "value_response",
	KindQuery:            "query",
	KindQueryHit:         "query_hit",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a defined message kind.
func (k Kind) Valid() bool { return k > KindInvalid && k < kindSentinel }

// IsDLM reports whether the kind belongs to DLM's information-exchange
// pairs (as opposed to the search substrate). The overhead study separates
// traffic along this line.
func (k Kind) IsDLM() bool {
	switch k {
	case KindNeighNumRequest, KindNeighNumResponse, KindValueRequest, KindValueResponse:
		return true
	}
	return false
}

// PeerID identifies a peer for the lifetime of one simulation run.
type PeerID uint32

// NoPeer is the zero, invalid peer ID.
const NoPeer PeerID = 0

// ObjectID identifies a content object in the catalog.
type ObjectID uint32

// QueryID identifies a query flood; duplicate suppression keys on it.
type QueryID uint64

// Message is one protocol message. A single struct (rather than one type
// per kind) keeps the hot simulation path free of interface dispatch and
// allocation; unused fields are zero.
type Message struct {
	Kind Kind
	From PeerID
	To   PeerID

	// NeighNum is the sender's leaf degree (l_nn) in a NeighNumResponse
	// or a ValueResponse.
	NeighNum uint32
	// Capacity and Age are the sender's, in a ValueResponse.
	Capacity float64
	Age      float64

	// Query fields.
	Query  QueryID
	Object ObjectID
	TTL    uint8
	Hops   uint8
	// Provider is the peer holding the object, in a QueryHit.
	Provider PeerID
}

// WireSize returns the encoded size of the message in bytes. DLM's pairs
// are deliberately tiny (§6: "they can have very simple formats and only
// need few bytes").
func (m *Message) WireSize() int { return encodedSize(m) }

// NeighNumRequest builds the leaf->super l_nn request.
func NeighNumRequest(from, to PeerID) Message {
	return Message{Kind: KindNeighNumRequest, From: from, To: to}
}

// NeighNumResponse builds the super->leaf l_nn response.
func NeighNumResponse(from, to PeerID, lnn int) Message {
	return Message{Kind: KindNeighNumResponse, From: from, To: to, NeighNum: uint32(lnn)}
}

// ValueRequest builds the bare ask for the receiver's Value frame.
func ValueRequest(from, to PeerID) Message {
	return Message{Kind: KindValueRequest, From: from, To: to}
}

// ValueResponse builds a Value frame with the sender's capacity and age;
// its leaf degree is zero until the sender sets NeighNum on the frame.
func ValueResponse(from, to PeerID, capacity, age float64) Message {
	return Message{Kind: KindValueResponse, From: from, To: to, Capacity: capacity, Age: age}
}

// NewQuery builds a query flood message with the given TTL.
func NewQuery(from, to PeerID, id QueryID, obj ObjectID, ttl uint8) Message {
	return Message{Kind: KindQuery, From: from, To: to, Query: id, Object: obj, TTL: ttl}
}

// NewQueryHit builds the response routed back along the inverse path;
// hops records the super-layer depth at which the hit occurred.
func NewQueryHit(from, to PeerID, id QueryID, obj ObjectID, provider PeerID, hops uint8) Message {
	return Message{Kind: KindQueryHit, From: from, To: to, Query: id, Object: obj, Provider: provider, Hops: hops}
}
