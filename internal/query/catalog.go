// Package query implements the search substrate of the super-peer
// overlay: the content catalog, the per-super-peer index of leaf content,
// Gnutella-style TTL flooding restricted to the super-layer, and QueryHit
// routing back along the inverse query path — the mechanics described in
// the paper's §3.
package query

import (
	"dlm/internal/msg"
	"dlm/internal/sim"
	"dlm/internal/workload"
)

// Catalog models the universe of shareable objects with Zipf-like
// popularity, used both for placing objects on peers and for drawing
// query targets (the measured file-sharing workloads are Zipf-like on
// both sides).
type Catalog struct {
	// NumObjects is the catalog size.
	NumObjects int

	placement *workload.Zipf
	queries   *workload.Zipf
	// drawn is AssignObjects' duplicate filter, reused by every call (a
	// Catalog serves one network and is not for concurrent use):
	// drawn[id] == draws means the current call already drew id.
	drawn []uint32
	draws uint32
	// scratch receives one call's draws; the call's list is then carved
	// from block, the tail of the current blockSize-ID array.
	scratch []msg.ObjectID
	block   []msg.ObjectID
}

// blockSize is the number of object IDs in one catalog block. Every peer's
// list is a slice of a block, so a join allocates once per blockSize IDs
// drawn rather than once per peer. A block stays reachable until the last
// peer whose list it holds is gone: at most 4 bytes for every ID a run
// draws.
const blockSize = 4096

// NewCatalog builds a catalog of n objects with the given placement and
// query Zipf exponents.
func NewCatalog(n int, placementSkew, querySkew float64) *Catalog {
	return &Catalog{
		NumObjects: n,
		placement:  workload.NewZipf(n, placementSkew),
		queries:    workload.NewZipf(n, querySkew),
		drawn:      make([]uint32, n),
	}
}

// DefaultCatalog matches the measurement studies: 10k objects, placement
// and query skew a bit below 1.
func DefaultCatalog() *Catalog { return NewCatalog(10000, 0.8, 0.8) }

// AssignObjects implements overlay.ObjectAssigner: it draws count objects
// by popularity (duplicates collapse, so very popular objects do not
// inflate a peer's set). The list's capacity is its length, so appending
// to it never writes into another peer's list.
func (c *Catalog) AssignObjects(count int, r *sim.Source) []msg.ObjectID {
	if count <= 0 {
		return nil
	}
	if c.draws++; c.draws == 0 { // wrapped: old marks would alias this call
		clear(c.drawn)
		c.draws = 1
	}
	out := c.scratch[:0]
	for attempts := 0; len(out) < count && attempts < 4*count; attempts++ {
		id := msg.ObjectID(c.placement.Rank(r))
		if c.drawn[id] == c.draws {
			continue
		}
		c.drawn[id] = c.draws
		out = append(out, id)
	}
	c.scratch = out
	return c.carve(out)
}

// carve copies ids into the current block, starting a fresh block when
// the current one has too little room left; a list longer than a block
// gets an array of its own.
func (c *Catalog) carve(ids []msg.ObjectID) []msg.ObjectID {
	n := len(ids)
	if n > blockSize {
		own := make([]msg.ObjectID, n)
		copy(own, ids)
		return own
	}
	if len(c.block)+n > cap(c.block) {
		c.block = make([]msg.ObjectID, 0, blockSize)
	}
	i := len(c.block)
	c.block = append(c.block, ids...)
	return c.block[i:len(c.block):len(c.block)]
}

// QueryTarget draws the object of one query.
func (c *Catalog) QueryTarget(r *sim.Source) msg.ObjectID {
	return msg.ObjectID(c.queries.Rank(r))
}
