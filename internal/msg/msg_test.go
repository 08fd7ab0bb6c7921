package msg

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if KindQuery.String() != "query" {
		t.Errorf("KindQuery.String() = %q", KindQuery.String())
	}
	if !strings.HasPrefix(Kind(200).String(), "kind(") {
		t.Errorf("unknown kind String() = %q", Kind(200).String())
	}
}

func TestKindValid(t *testing.T) {
	if KindInvalid.Valid() {
		t.Error("KindInvalid reported valid")
	}
	for k := KindNeighNumRequest; k < kindSentinel; k++ {
		if !k.Valid() {
			t.Errorf("kind %v reported invalid", k)
		}
	}
	if kindSentinel.Valid() {
		t.Error("sentinel reported valid")
	}
}

func TestIsDLM(t *testing.T) {
	dlm := []Kind{KindNeighNumRequest, KindNeighNumResponse, KindValueRequest, KindValueResponse}
	for _, k := range dlm {
		if !k.IsDLM() {
			t.Errorf("%v should be DLM traffic", k)
		}
	}
	for _, k := range []Kind{KindQuery, KindQueryHit, KindPing, KindPong} {
		if k.IsDLM() {
			t.Errorf("%v should not be DLM traffic", k)
		}
	}
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf := Encode(nil, &m)
	if len(buf) != m.WireSize() {
		t.Fatalf("%v: encoded %d bytes, WireSize says %d", m.Kind, len(buf), m.WireSize())
	}
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatalf("%v: decode: %v", m.Kind, err)
	}
	if n != len(buf) {
		t.Fatalf("%v: consumed %d of %d bytes", m.Kind, n, len(buf))
	}
	return got
}

func TestRoundTripAllKinds(t *testing.T) {
	msgs := []Message{
		NeighNumRequest(1, 2),
		NeighNumResponse(2, 1, 80),
		ValueRequest(3, 4),
		ValueResponse(4, 3, 123.5, 42.25),
		valueFrame(4, 3, 123.5, 42.25, 80),
		NewQuery(5, 6, 0xdeadbeefcafe, 777, 7),
		NewQueryHit(6, 5, 0xdeadbeefcafe, 777, 99, 4),
		{Kind: KindPing, From: 7, To: 8},
		{Kind: KindPong, From: 8, To: 7},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if got != m {
			t.Errorf("round trip %v:\n got %+v\nwant %+v", m.Kind, got, m)
		}
	}
}

// valueFrame is a Value frame carrying its sender's leaf degree, as a
// super sends it.
func valueFrame(from, to PeerID, capacity, age float64, lnn uint32) Message {
	m := ValueResponse(from, to, capacity, age)
	m.NeighNum = lnn
	return m
}

// TestValueFramesCarryValues pins the Value pair's layout: the request is
// a bare header, the Value frame the header plus two float64s and the
// sender's leaf degree, and a frame cut short by a byte does not decode.
func TestValueFramesCarryValues(t *testing.T) {
	req := ValueRequest(1, 2)
	if s := req.WireSize(); s != headerSize {
		t.Errorf("%v wire size %d bytes, want %d", req.Kind, s, headerSize)
	}
	m := valueFrame(2, 1, 64, 17.5, 80)
	if s := m.WireSize(); s != headerSize+20 {
		t.Errorf("%v wire size %d bytes, want %d", m.Kind, s, headerSize+20)
	}
	if got := roundTrip(t, m); got.Capacity != 64 || got.Age != 17.5 || got.NeighNum != 80 {
		t.Errorf("%v lost its values: %+v", m.Kind, got)
	}
	for _, m := range []Message{req, m} {
		buf := Encode(nil, &m)
		if _, _, err := Decode(buf[:len(buf)-1]); err != ErrShortBuffer {
			t.Errorf("%v cut to %d bytes: err = %v, want ErrShortBuffer", m.Kind, len(buf)-1, err)
		}
	}
}

func TestQueryHopsSurvive(t *testing.T) {
	m := NewQuery(1, 2, 9, 10, 7)
	m.Hops = 3
	if got := roundTrip(t, m); got.Hops != 3 || got.TTL != 7 {
		t.Fatalf("hops/ttl lost: %+v", got)
	}
}

func TestDLMPairsAreTiny(t *testing.T) {
	// §6 argues the DLM pairs "only need few bytes"; lock that in.
	for _, m := range []Message{
		NeighNumRequest(1, 2),
		NeighNumResponse(2, 1, 80),
		ValueRequest(1, 2),
		ValueResponse(2, 1, 1, 1),
	} {
		if s := m.WireSize(); s > 32 {
			t.Errorf("%v wire size %d bytes, want <= 32", m.Kind, s)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err != ErrShortBuffer {
		t.Errorf("Decode(nil) err = %v, want ErrShortBuffer", err)
	}
	if _, _, err := Decode([]byte{byte(KindQuery), 0, 0, 0, 1, 0, 0, 0, 2}); err != ErrShortBuffer {
		t.Errorf("truncated query err = %v, want ErrShortBuffer", err)
	}
	bad := make([]byte, 32)
	bad[0] = 250
	if _, _, err := Decode(bad); err != ErrBadKind {
		t.Errorf("bad kind err = %v, want ErrBadKind", err)
	}
}

func TestEncodeInvalidKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("encoding an invalid kind did not panic")
		}
	}()
	m := Message{Kind: KindInvalid}
	Encode(nil, &m)
}

func TestEncodeAppends(t *testing.T) {
	prefix := []byte{0xaa, 0xbb}
	m := NeighNumRequest(1, 2)
	out := Encode(prefix, &m)
	if len(out) != 2+m.WireSize() || out[0] != 0xaa || out[1] != 0xbb {
		t.Fatalf("Encode did not append: %x", out)
	}
}

func TestDecodeStream(t *testing.T) {
	var buf []byte
	want := []Message{
		NeighNumResponse(1, 2, 7),
		ValueResponse(2, 1, 3.5, 9),
		NewQuery(4, 5, 1, 2, 3),
	}
	for i := range want {
		buf = Encode(buf, &want[i])
	}
	var got []Message
	for len(buf) > 0 {
		m, n, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
		buf = buf[n:]
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stream message %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// Property: ValueResponse round-trips arbitrary finite float payloads
// and any leaf degree.
func TestValueResponseRoundTripProperty(t *testing.T) {
	f := func(from, to uint32, capacity, age float64, lnn uint32) bool {
		if math.IsNaN(capacity) || math.IsNaN(age) {
			return true // NaN != NaN; comparison below is meaningless
		}
		m := valueFrame(PeerID(from), PeerID(to), capacity, age, lnn)
		buf := Encode(nil, &m)
		got, _, err := Decode(buf)
		return err == nil && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: every valid-kind message consumes exactly WireSize bytes and
// trailing data is untouched.
func TestDecodeConsumesExactly(t *testing.T) {
	f := func(lnn uint32, tail []byte) bool {
		m := NeighNumResponse(1, 2, int(lnn))
		buf := Encode(nil, &m)
		buf = append(buf, tail...)
		got, n, err := Decode(buf)
		return err == nil && n == m.WireSize() && got.NeighNum == lnn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
