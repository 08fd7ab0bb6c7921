package protocol

import (
	"testing"
	"unsafe"

	"dlm/internal/msg"
	"dlm/internal/spare"
)

// TestMachineLayout holds Machine's layout comment to its word: the
// fields of the "nothing to do this tick" visit are the first cache line,
// the related set's count and inline IDs with them, the inline related
// entries — which carry the l_nn reports AvgLnn sums — fill two whole
// lines of their own, and the struct is a whole number of lines — six —
// so that machines in the host's arena all start on a line boundary. The
// collect scan's per-leaf fields — the refresh due time and the pending
// count — share one line, so a leaf the scan skips costs one line read.
func TestMachineLayout(t *testing.T) {
	const line = 64
	var ma Machine
	end := func(off, size uintptr) uintptr { return off + size }
	// A flatidx.Set leads with its int32 count and its inline IDs
	// (flatidx TestSetLayout).
	idsLead := unsafe.Sizeof(int32(0)) + unsafe.Sizeof([spare.Inline]msg.PeerID{})
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"p", end(unsafe.Offsetof(ma.p), unsafe.Sizeof(ma.p))},
		{"lastChange", end(unsafe.Offsetof(ma.lastChange), unsafe.Sizeof(ma.lastChange))},
		{"relMinSeen", end(unsafe.Offsetof(ma.relMinSeen), unsafe.Sizeof(ma.relMinSeen))},
		{"the related-set count and inline IDs", end(unsafe.Offsetof(ma.ids), idsLead)},
	} {
		if f.end > line {
			t.Errorf("%s ends at byte %d, outside the first cache line", f.name, f.end)
		}
	}
	if off, size := unsafe.Offsetof(ma.relBuf), unsafe.Sizeof(ma.relBuf); off != 2*line || size != 2*line {
		t.Errorf("relBuf spans bytes %d-%d, want %d-%d: the inline entries fill the third and fourth lines",
			off, off+size-1, 2*line, 4*line-1)
	}
	if end := end(unsafe.Offsetof(ma.relHeap), unsafe.Sizeof(ma.relHeap)); end > 2*line {
		t.Errorf("relHeap ends at byte %d, past the line before the inline entries", end)
	}
	scanLine := unsafe.Offsetof(ma.refreshAt) / line
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"refreshAt", unsafe.Offsetof(ma.refreshAt), unsafe.Sizeof(ma.refreshAt)},
		{"pendN", unsafe.Offsetof(ma.pendN), unsafe.Sizeof(ma.pendN)},
	} {
		if f.off/line != scanLine || (f.off+f.size-1)/line != scanLine {
			t.Errorf("%s spans bytes %d-%d, off the collect scan's line %d", f.name, f.off, f.off+f.size-1, scanLine)
		}
	}
	if got := unsafe.Sizeof(ma); got != 6*line {
		t.Errorf("Sizeof(Machine) = %d, want %d (six cache lines)", got, 6*line)
	}
	if got := unsafe.Sizeof(relEntry{}); got != 32 {
		t.Errorf("Sizeof(relEntry) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(pendingRec{}); got != 16 {
		t.Errorf("Sizeof(pendingRec) = %d, want 16", got)
	}
}
