package protocol

import (
	"testing"

	"dlm/internal/msg"
)

// BenchmarkDecide measures one full Phase 2-4 evaluation against a
// related set of k_l = 80 entries (the Table 2 operating point).
func BenchmarkDecide(b *testing.B) {
	p := DefaultParams()
	now := Time(1000)
	ma := NewMachine(&p, 0)
	for i := 0; i < 80; i++ {
		ma.observe(msg.PeerID(i+1), float64(1+i%100), float64(10+i%200), now, 0)
	}
	var d Decision
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ma.decideInto(&d, 50, 120, now, 90, 80, i%2 == 0)
	}
}

// BenchmarkObserve measures related-set maintenance under the FIFO cap.
func BenchmarkObserve(b *testing.B) {
	p := DefaultParams()
	ma := NewMachine(&p, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ma.observe(msg.PeerID(i%200), 50, 100, Time(i), 64)
	}
}

// BenchmarkHandleValueResponse measures the Phase 1 hot path end to end:
// decode-free message dispatch into the related set.
func BenchmarkHandleValueResponse(b *testing.B) {
	p := DefaultParams()
	ma := NewMachine(&p, 0)
	ep := &captureEndpoint{}
	self := Self{ID: 1, Capacity: 10, Age: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := msg.ValueResponse(msg.PeerID(2+i%200), 1, 50, 100)
		ma.HandleMessage(self, &m, Time(i), ep)
	}
}
