package msg

import (
	"bytes"
	"testing"
)

// FuzzDecode ensures the codec never panics or over-reads on arbitrary
// input, and that every successfully decoded message re-encodes to the
// exact consumed bytes (decode∘encode is the identity on valid frames).
func FuzzDecode(f *testing.F) {
	seeds := []Message{
		NeighNumRequest(1, 2),
		NeighNumResponse(2, 1, 80),
		ValueRequest(3, 4),
		ValueResponse(4, 3, 123.5, 42.25),
		{Kind: KindValueResponse, From: 4, To: 3, Capacity: 64, Age: 17.5, NeighNum: 80},
		NewQuery(5, 6, 99, 777, 7),
		NewQueryHit(6, 5, 99, 777, 99, 3),
		{Kind: KindPing, From: 7, To: 8},
	}
	for i := range seeds {
		f.Add(Encode(nil, &seeds[i]))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := Encode(nil, &m)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data[:n], re)
		}
	})
}
