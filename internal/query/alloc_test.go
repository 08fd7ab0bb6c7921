package query

import (
	"testing"

	"dlm/internal/overlay"
)

// maxFloodAllocs is the documented allocation bound for one steady-state
// flood on a warm engine: the flood state, its visited/parent slices, the
// Result, and every relayed message come from pools, so the expected cost
// is zero; the bound allows one stray allocation for Go map internals on
// the active-query table.
const maxFloodAllocs = 1

// TestRepeatFloodAllocFree pins the headline property of the epoch-stamped
// flood state: repeated floods on a fixed topology allocate at most
// maxFloodAllocs objects per query (expected: zero).
func TestRepeatFloodAllocFree(t *testing.T) {
	_, qe, source, obj := benchTopology(t)
	for i := 0; i < 16; i++ { // warm the flood and delivery pools
		qe.IssueAsync(source, obj, qe.DefaultTTL, nil)
	}
	allocs := testing.AllocsPerRun(200, func() {
		qe.IssueAsync(source, obj, qe.DefaultTTL, nil)
	})
	if allocs > maxFloodAllocs {
		t.Errorf("steady-state flood allocates %.2f objects/op, want <= %d",
			allocs, maxFloodAllocs)
	}
}

// TestRepeatRandomFloodAllocFree covers the random-source path used by the
// query driver in every scenario run.
func TestRepeatRandomFloodAllocFree(t *testing.T) {
	_, qe, _, _ := benchTopology(t)
	for i := 0; i < 16; i++ {
		qe.IssueRandomAsync(nil)
	}
	allocs := testing.AllocsPerRun(200, func() {
		qe.IssueRandomAsync(nil)
	})
	if allocs > maxFloodAllocs {
		t.Errorf("steady-state random flood allocates %.2f objects/op, want <= %d",
			allocs, maxFloodAllocs)
	}
}

// TestIndexSteadyStateAllocFree pins the index half of the same property:
// once a super-peer has indexed a leaf, a lookup and a disconnect/connect
// cycle of that leaf reuse the per-object slots and allocate nothing.
func TestIndexSteadyStateAllocFree(t *testing.T) {
	_, qe, leaf, _ := benchTopology(t)
	if leaf.Layer != overlay.LayerLeaf || len(leaf.Objects) == 0 {
		t.Fatal("precondition: the source is a leaf sharing objects")
	}
	n := qe.net
	super := n.Peer(leaf.SuperLinks()[0])
	allocs := testing.AllocsPerRun(200, func() {
		qe.xs.OnDisconnect(n, leaf, super)
		qe.xs.OnConnect(n, leaf, super)
		if _, ok := qe.xs.lookup(n, super, leaf.Objects[0]); !ok {
			t.Fatal("object not indexed after its sharer connected")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state index cycle allocates %.2f objects/op, want 0", allocs)
	}
}
