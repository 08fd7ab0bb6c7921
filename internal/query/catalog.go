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
}

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
// inflate a peer's set).
func (c *Catalog) AssignObjects(count int, r *sim.Source) []msg.ObjectID {
	if count <= 0 {
		return nil
	}
	if c.draws++; c.draws == 0 { // wrapped: old marks would alias this call
		clear(c.drawn)
		c.draws = 1
	}
	out := make([]msg.ObjectID, 0, count)
	for attempts := 0; len(out) < count && attempts < 4*count; attempts++ {
		id := msg.ObjectID(c.placement.Rank(r))
		if c.drawn[id] == c.draws {
			continue
		}
		c.drawn[id] = c.draws
		out = append(out, id)
	}
	return out
}

// QueryTarget draws the object of one query.
func (c *Catalog) QueryTarget(r *sim.Source) msg.ObjectID {
	return msg.ObjectID(c.queries.Rank(r))
}
