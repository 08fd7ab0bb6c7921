package overlay

import (
	"testing"
	"unsafe"
)

// TestPeerLayout holds Peer's layout comment to its word — what the tick
// walk and a delivery read is the first 64 bytes — and caps the struct, so
// that the inline link IDs do not quietly grow every slab page.
func TestPeerLayout(t *testing.T) {
	var p Peer
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"ID", unsafe.Offsetof(p.ID) + unsafe.Sizeof(p.ID)},
		{"slot", unsafe.Offsetof(p.slot) + unsafe.Sizeof(p.slot)},
		{"Layer", unsafe.Offsetof(p.Layer) + unsafe.Sizeof(p.Layer)},
		{"alive", unsafe.Offsetof(p.alive) + unsafe.Sizeof(p.alive)},
		{"State", unsafe.Offsetof(p.State) + unsafe.Sizeof(p.State)},
		{"Capacity", unsafe.Offsetof(p.Capacity) + unsafe.Sizeof(p.Capacity)},
		{"JoinTime", unsafe.Offsetof(p.JoinTime) + unsafe.Sizeof(p.JoinTime)},
		{"MisreportCapFactor", unsafe.Offsetof(p.MisreportCapFactor) + unsafe.Sizeof(p.MisreportCapFactor)},
		{"MisreportAgeBoost", unsafe.Offsetof(p.MisreportAgeBoost) + unsafe.Sizeof(p.MisreportAgeBoost)},
	} {
		if f.end > 64 {
			t.Errorf("%s ends at byte %d, outside the first 64", f.name, f.end)
		}
	}
	if got := unsafe.Offsetof(p.superLinks); got != 64 {
		t.Errorf("superLinks at byte %d, want 64", got)
	}
	if got := unsafe.Sizeof(p.superLinks); got > 56 {
		t.Errorf("Sizeof(flatidx.Set) = %d, want <= 56", got)
	}
	if got := unsafe.Sizeof(p); got > 216 {
		t.Errorf("Sizeof(Peer) = %d, want <= 216", got)
	}
}
