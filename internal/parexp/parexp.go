// Package parexp fans independent simulation trials across a worker pool.
// The discrete-event engine is single-threaded by design (events have a
// total order), so all parallelism lives here: different seeds and sweep
// points run concurrently on a bounded pool of workers, and the results
// are merged deterministically in input order.
//
// Determinism contract: a trial must be a pure function of its seed (plus
// whatever immutable configuration it closes over). Under that contract
// every exported entry point returns byte-identical results regardless of
// worker count — trials are dispatched in index order, results land in
// index-addressed slots, and aggregation happens sequentially in trial
// order after the pool drains.
package parexp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Trial is one independent unit of work. It must be self-contained: no
// shared mutable state with other trials.
type Trial[T any] func(seed int64) (T, error)

// Options configures a parallel run.
type Options struct {
	// Workers caps concurrency; 0 means GOMAXPROCS.
	Workers int
	// BaseSeed is the seed of trial 0; trial i uses BaseSeed + i.
	BaseSeed int64
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes n trials concurrently and returns their results in trial
// order. On failure the pool cancels: trials not yet dispatched are
// skipped, trials already running complete, and the error returned is the
// failure with the smallest trial index, with the results of the
// successful trials preserved.
func Run[T any](n int, opt Options, trial Trial[T]) ([]T, error) {
	return RunWith(n, opt,
		func() struct{} { return struct{}{} },
		func(_ struct{}, seed int64) (T, error) { return trial(seed) })
}

// RunWith is Run with per-worker reusable state: each worker constructs
// one S via newState (lazily, on its first trial) and passes it to every
// trial it executes. The intended use is expensive scaffolding that a
// trial can recycle instead of reallocating — a sim.Engine reset between
// trials, reusable buffers — cutting allocation churn for large sweeps.
//
// The determinism contract extends to state: a trial must (re)initialize
// everything it reads from S before use, because which worker — and hence
// which S, with whatever a previous trial left in it — runs a given trial
// is scheduling-dependent.
//
// Error semantics: the first trial failure (in wall-clock observation
// order) stops dispatch, so later-index trials are skipped; in-flight
// trials run to completion. The error surfaced is deterministic
// nonetheless — the failure with the smallest trial index. Dispatch is
// strictly in index order, so if f is the smallest index whose trial
// deterministically fails, every observed failure has index >= f, which
// means f itself was dispatched (at latest, before the failure that
// triggered cancellation) and its error recorded. A panicking trial is
// converted to an error on the same terms.
func RunWith[S, T any](n int, opt Options, newState func() S, trial func(state S, seed int64) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	w := opt.workers()
	if w > n {
		w = n
	}
	idxCh := make(chan int)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var state S
			ready := false
			for i := range idxCh {
				func() {
					defer func() {
						if r := recover(); r != nil {
							errs[i] = fmt.Errorf("parexp: trial %d panicked: %v", i, r)
						}
						if errs[i] != nil {
							failed.Store(true)
						}
					}()
					if !ready {
						state = newState()
						ready = true
					}
					results[i], errs[i] = trial(state, opt.BaseSeed+int64(i))
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		if failed.Load() {
			break // cancel: skip the trials not yet dispatched
		}
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Sweep runs trial(point, seed) for every point of a parameter sweep,
// with repeats replicas per point, all concurrently. Result [i][j] is
// point i, replica j.
func Sweep[P, T any](points []P, repeats int, opt Options, trial func(p P, seed int64) (T, error)) ([][]T, error) {
	return SweepWith(points, repeats, opt,
		func() struct{} { return struct{}{} },
		func(_ struct{}, p P, seed int64) (T, error) { return trial(p, seed) })
}

// SweepWith is Sweep with per-worker reusable state, on RunWith's terms.
func SweepWith[S, P, T any](points []P, repeats int, opt Options, newState func() S, trial func(state S, p P, seed int64) (T, error)) ([][]T, error) {
	if repeats <= 0 {
		repeats = 1
	}
	flat, err := RunWith(len(points)*repeats, opt, newState, func(state S, seed int64) (T, error) {
		idx := int(seed - opt.BaseSeed)
		return trial(state, points[idx/repeats], seed)
	})
	out := make([][]T, len(points))
	for i := range points {
		out[i] = flat[i*repeats : (i+1)*repeats]
	}
	return out, err
}
