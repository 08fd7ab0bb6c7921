package protocol

import (
	"testing"
	"unsafe"
)

// TestMachineLayout holds Machine's layout comment to its word: the
// fields of the "nothing to do this tick" visit are the first cache line,
// the inline related entries the two lines after it with their IDs
// adjacent, and the struct is a whole number of lines — eight — so that
// machines in the host's arena all start on a line boundary.
func TestMachineLayout(t *testing.T) {
	const line = 64
	var ma Machine
	end := func(off, size uintptr) uintptr { return off + size }
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"p", end(unsafe.Offsetof(ma.p), unsafe.Sizeof(ma.p))},
		{"lastChange", end(unsafe.Offsetof(ma.lastChange), unsafe.Sizeof(ma.lastChange))},
		{"relMinSeen", end(unsafe.Offsetof(ma.relMinSeen), unsafe.Sizeof(ma.relMinSeen))},
		{"lnnSum", end(unsafe.Offsetof(ma.lnnSum), unsafe.Sizeof(ma.lnnSum))},
		{"lnnCount", end(unsafe.Offsetof(ma.lnnCount), unsafe.Sizeof(ma.lnnCount))},
		{"relN", end(unsafe.Offsetof(ma.relN), unsafe.Sizeof(ma.relN))},
		{"relHeap", end(unsafe.Offsetof(ma.relHeap), unsafe.Sizeof(ma.relHeap))},
	} {
		if f.end > line {
			t.Errorf("%s ends at byte %d, outside the first cache line", f.name, f.end)
		}
	}
	if off := unsafe.Offsetof(ma.relBuf); off != line {
		t.Errorf("relBuf at byte %d, want %d: the inline entries start the second line", off, line)
	}
	if got, want := unsafe.Offsetof(ma.ordBuf), unsafe.Offsetof(ma.relBuf)+unsafe.Sizeof(ma.relBuf); got != want {
		t.Errorf("ordBuf at byte %d, want %d: the IDs follow their entries", got, want)
	}
	if got := unsafe.Sizeof(ma); got != 8*line {
		t.Errorf("Sizeof(Machine) = %d, want %d (eight cache lines)", got, 8*line)
	}
	if got := unsafe.Sizeof(pendingRec{}); got != 16 {
		t.Errorf("Sizeof(pendingRec) = %d, want 16", got)
	}
}
