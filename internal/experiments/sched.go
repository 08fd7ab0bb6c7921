package experiments

import (
	"dlm/internal/parexp"
	"dlm/internal/sim"
)

// The deterministic parallel trial scheduler: every sweep in this package
// runs its trials through pooled/pooledSweep, which give each worker one
// long-lived sim.Engine that trials Reset to their own seed (see
// sim.Engine.Reset and RunOn). The output is byte-identical for any
// worker count because the three sources of nondeterminism are each
// pinned:
//
//  1. every trial's randomness comes from its own seeded engine source,
//     never from shared state;
//  2. a reset engine is indistinguishable from a fresh one (clock, event
//     queue, insertion sequence and RNG all restart), so which worker ran
//     the previous trial on the engine cannot leak in;
//  3. parexp lands results in index-addressed slots and all aggregation
//     (means, Welford merges, row assembly) happens sequentially in trial
//     order after the pool drains.

// DefaultWorkers, when non-zero, caps the worker pool of every sweep in
// this package whose caller did not pick a count itself. The scheduler's
// determinism means this only affects wall time and memory, never
// results.
var DefaultWorkers int

// newWorkerEngine builds a worker's reusable engine. The seed is
// irrelevant: every trial resets the engine to its own seed before use.
func newWorkerEngine() *sim.Engine { return sim.NewEngine(0) }

// pooled runs n trials with one reused engine per worker.
func pooled[T any](n int, opt parexp.Options, trial func(eng *sim.Engine, seed int64) (T, error)) ([]T, error) {
	if opt.Workers == 0 {
		opt.Workers = DefaultWorkers
	}
	return parexp.RunWith(n, opt, newWorkerEngine, trial)
}

// pooledSweep is parexp.Sweep with one reused engine per worker.
func pooledSweep[P, T any](points []P, repeats int, opt parexp.Options, trial func(eng *sim.Engine, p P, seed int64) (T, error)) ([][]T, error) {
	if opt.Workers == 0 {
		opt.Workers = DefaultWorkers
	}
	return parexp.SweepWith(points, repeats, opt, newWorkerEngine, trial)
}
