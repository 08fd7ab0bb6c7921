package overlay

import (
	"dlm/internal/msg"
	"dlm/internal/sim"
	"dlm/internal/workload"
)

// Churn drives the population process of the paper's simulations: the
// network starts cold, grows to a target size as peers arrive, and then
// holds its size constant — "whenever a peer dies, a new peer is created
// and joins the network".
type Churn struct {
	Net     *Network
	Profile workload.Profile
	// TargetSize is the steady-state population n.
	TargetSize int
	// GrowthRate is the number of joins per time unit during the cold
	// start (spread uniformly within each unit).
	GrowthRate int
	// Catalog assigns shared objects to joining peers; nil disables
	// content assignment.
	Catalog ObjectAssigner

	rng *sim.Source
}

// churnEvent is one lineage's reusable event carrier: it fires first as
// the initial join, then alternates death -> replacement join forever,
// so steady-state churn schedules zero allocations. Start allocates all
// TargetSize carriers as one slice; a lineage whose peer is removed out of
// band ends there, and its carrier is never scheduled again. Deaths are
// keyed by PeerID, not *Peer: peer structs live in the network's recycling
// slab store, and an ID is never reused, so a stale death (the peer was
// already removed out-of-band) resolves to nil instead of to the slot's
// next tenant.
type churnEvent struct {
	c *Churn
	// id is NoPeer for a join event, or the peer whose death this is.
	id msg.PeerID
}

// Fire implements sim.Event.
func (ev *churnEvent) Fire(*sim.Engine) {
	c := ev.c
	if ev.id == msg.NoPeer {
		c.joinOne(ev)
		return
	}
	p := c.Net.Peer(ev.id)
	if p == nil || !p.Alive() {
		// Removed out-of-band; no replacement (matching the historical
		// "dead peers don't respawn twice" behavior).
		return
	}
	c.Net.Leave(p)
	c.joinOne(ev) // one-for-one replacement
}

// ObjectAssigner draws the object IDs a joining peer shares.
type ObjectAssigner interface {
	AssignObjects(count int, r *sim.Source) []msg.ObjectID
}

// Start schedules the growth phase and the death/replacement loop on the
// network's engine. It panics on a non-positive target size or growth
// rate (construction bugs).
func (c *Churn) Start() {
	if c.TargetSize <= 0 {
		panic("overlay: churn with non-positive target size")
	}
	if c.GrowthRate <= 0 {
		panic("overlay: churn with non-positive growth rate")
	}
	c.rng = c.Net.Engine().Rand().Stream("churn")
	eng := c.Net.Engine()
	lineages := make([]churnEvent, c.TargetSize)
	for i := range lineages {
		lineages[i].c = c
	}

	remaining := c.TargetSize
	unit := sim.Time(0)
	for remaining > 0 {
		batch := c.GrowthRate
		if batch > remaining {
			batch = remaining
		}
		for i := 0; i < batch; i++ {
			at := unit + sim.Time(float64(i)/float64(batch))
			eng.Schedule(at, &lineages[c.TargetSize-remaining+i])
		}
		remaining -= batch
		unit++
	}
}

// joinOne admits a freshly drawn peer and schedules its death on the
// lineage's event carrier, which in turn schedules a replacement join —
// keeping the population constant after the growth phase.
func (c *Churn) joinOne(ev *churnEvent) {
	eng := c.Net.Engine()
	sample := c.Profile.NewPeer(eng.Now(), c.rng)
	var objects []msg.ObjectID
	if c.Catalog != nil && sample.Objects > 0 {
		objects = c.Catalog.AssignObjects(sample.Objects, c.rng)
	}
	p := c.Net.Join(sample.Capacity, sample.Lifetime, objects)
	life := sim.Duration(sample.Lifetime)
	if life <= 0 {
		life = 1e-3
	}
	ev.id = p.ID
	// The death timer is a peer-targeted event, so it is tagged with the
	// lane that owns the new peer's slab page (and counts as a lane event).
	// Churn events never batch — Leave and the replacement Join draw from
	// shared streams and mutate cross-peer structure.
	eng.AfterLane(c.Net.LaneOf(p), life, ev)
}
