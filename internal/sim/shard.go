package sim

import (
	"sync"
	"sync/atomic"
)

// Intra-run parallelism. The engine itself stays a single-threaded
// discrete-event loop (see the Engine type comment); what this file adds
// is the *fan-out primitive* that lets one event — in practice the
// per-tick maintenance of a million-peer overlay — spread peer-local
// work across CPUs and rejoin before the event returns. Determinism is
// preserved by a fixed-lane discipline: work is partitioned into a
// constant number of lanes that is independent of the worker count, each
// lane owns its own random stream and result buffer, and the caller
// merges lane results in lane order. Any worker count — including one —
// then produces byte-identical output; the setting trades wall time only.

// SetShards sets the worker count used by lane fan-outs on this engine
// (see ForLanes). It is configuration, not simulation state: Reset keeps
// it, exactly like MaxEvents. Zero or negative means serial. The
// fixed-lane discipline makes results identical for every value.
func (e *Engine) SetShards(k int) { e.shards = k }

// Shards returns the configured lane-fan-out worker count (1 when never
// set or set below 1).
func (e *Engine) Shards() int {
	if e.shards <= 0 {
		return 1
	}
	return e.shards
}

// ForLanes invokes fn(lane) exactly once for every lane in [0, lanes),
// spreading the calls across up to workers goroutines and returning only
// when all have completed. With one worker (or one lane) it degrades to
// an inline loop — no goroutines, same call sequence.
//
// The contract that makes a fan-out deterministic for any worker count:
// fn must confine its writes to per-lane state (its lane's buffer, its
// lane's RNG stream, fields of items owned by its lane) and the caller
// must consume the per-lane results in lane-index order. Which goroutine
// ran a lane is then unobservable.
func ForLanes(workers, lanes int, fn func(lane int)) {
	if workers > lanes {
		workers = lanes
	}
	if workers <= 1 {
		for l := 0; l < lanes; l++ {
			fn(l)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				l := int(next.Add(1)) - 1
				if l >= lanes {
					return
				}
				fn(l)
			}
		}()
	}
	wg.Wait()
}
