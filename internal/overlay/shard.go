package overlay

import "dlm/internal/sim"

// Lane-partitioned population walks. The slab store (store.go) already
// keeps peers in dense fixed-size pages; a lane is the set of pages whose
// index is congruent to the lane number mod NumLanes, walked in slot
// order. Two properties make lanes the unit of deterministic intra-run
// parallelism:
//
//  1. Stable assignment. A peer's lane is a pure function of its slab
//     slot, and slots are assigned deterministically (LIFO free-list,
//     then high-water growth), so the lane partition is identical across
//     runs and unchanged by how many workers process it. Striding by
//     *page* rather than by slot keeps each lane's memory contiguous in
//     page-sized chunks — the walk stays cache-friendly.
//
//  2. Worker-count independence. NumLanes is a constant, never derived
//     from GOMAXPROCS or the shard count. Consumers give each lane its own
//     RNG stream and result buffer and merge in (lane, slot) order, so a
//     64-worker run and a serial run produce byte-identical output.
//
// NumLanes bounds the parallelism any single run can exploit (64 covers
// every machine this simulator plausibly meets) while keeping the
// per-tick fixed overhead — 64 buffer resets — negligible.
//
// The constant is the engine's: a lane is also the tag peer-targeted
// events are scheduled under (sim.ScheduleLane), and the two partitions
// must be the same partition — a same-timestamp batch evaluates a peer's
// deliveries on the lane that owns the peer.
const NumLanes = sim.NumLanes

// LaneOf returns the lane that owns p: the lane of its slab page.
// Peer-targeted events (message delivery, per-peer timers) are scheduled
// under this lane so same-timestamp firings can fan out with the same
// partition the tick walk shards over.
func (n *Network) LaneOf(p *Peer) int {
	return int(p.slot>>pageShift) % NumLanes
}

// Slot returns p's slab slot index. Slot order is the deterministic
// population-walk order (WalkPeers, WalkLane merge), exposed so a manager
// can keep per-peer state in a slot-indexed arena of its own (core's
// protocol machines) and merge peers gathered from several lanes back
// into exactly that order (core's collect phase). A slot is reused once
// its peer has left, so the manager resets its state in InitialLayer.
func (p *Peer) Slot() int32 { return p.slot }

// walkLane calls fn for every live peer in the lane, in slot order.
func (st *peerStore) walkLane(lane int, fn func(*Peer)) {
	for pi := lane; pi < len(st.pages); pi += NumLanes {
		pg := st.pages[pi]
		limit := pageSize
		if base := int32(pi) << pageShift; st.next-base < pageSize {
			limit = int(st.next - base)
		}
		for s := 0; s < limit; s++ {
			if p := &pg[s]; p.alive {
				fn(p)
			}
		}
	}
}

// WalkLane calls fn for every live peer whose slab page belongs to the
// lane (page index ≡ lane mod NumLanes), in slot order. Lane membership
// is a deterministic function of the join/leave history, so per-lane
// iteration order is reproducible; fn must not mutate membership.
func (n *Network) WalkLane(lane int, fn func(*Peer)) { n.store.walkLane(lane, fn) }

// WalkPeers calls fn for every live peer in slot order — the serial
// full-population walk, dense in memory where the ID-indexed layer-set
// walks are not. fn must not mutate membership.
func (n *Network) WalkPeers(fn func(*Peer)) {
	st := &n.store
	for pi := range st.pages {
		pg := st.pages[pi]
		limit := pageSize
		if base := int32(pi) << pageShift; st.next-base < pageSize {
			limit = int(st.next - base)
		}
		for s := 0; s < limit; s++ {
			if p := &pg[s]; p.alive {
				fn(p)
			}
		}
	}
}
