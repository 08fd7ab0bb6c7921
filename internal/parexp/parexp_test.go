package parexp

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunOrderAndSeeds(t *testing.T) {
	got, err := Run(8, Options{BaseSeed: 100}, func(seed int64) (int64, error) {
		return seed * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != (100+int64(i))*2 {
			t.Fatalf("trial %d = %d", i, v)
		}
	}
}

func TestRunConcurrencyCap(t *testing.T) {
	var cur, peak int64
	_, err := Run(32, Options{Workers: 3}, func(seed int64) (struct{}, error) {
		n := atomic.AddInt64(&cur, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		defer atomic.AddInt64(&cur, -1)
		// Busy moment to force overlap.
		s := 0.0
		for i := 0; i < 10000; i++ {
			s += math.Sqrt(float64(i))
		}
		_ = s
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&peak) > 3 {
		t.Fatalf("peak concurrency %d exceeds cap 3", peak)
	}
}

// TestRunGoroutineCap pins the stronger invariant behind the worker cap:
// at most Workers trial *goroutines exist* at any moment (not merely "at
// most Workers run"). An earlier Run spawned all n goroutines up front and
// let them park on the semaphore; for large sweeps that pinned every
// trial's stack at once. The counter increments at the very top of the
// goroutine body, so pre-spawned-but-parked goroutines would be counted.
func TestRunGoroutineCap(t *testing.T) {
	var live, peak int64
	_, err := Run(64, Options{Workers: 4}, func(seed int64) (struct{}, error) {
		n := atomic.AddInt64(&live, 1)
		defer atomic.AddInt64(&live, -1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		runtime.Gosched() // widen the window for stragglers to overlap
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&peak); got > 4 {
		t.Fatalf("peak live trial goroutines %d exceeds Workers=4", got)
	}
}

func TestRunPropagatesFirstError(t *testing.T) {
	sentinel := errors.New("boom")
	res, err := Run(5, Options{}, func(seed int64) (int64, error) {
		if seed == 2 {
			return 0, sentinel
		}
		return seed, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	// Trials dispatched before the failure keep their results; trials
	// after it may be cancelled (their slots stay zero).
	if res[0] != 0 || res[1] != 1 {
		t.Fatalf("pre-failure results not preserved: %v", res)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	_, err := Run(3, Options{}, func(seed int64) (int, error) {
		if seed == 1 {
			panic("kaboom")
		}
		return 0, nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v", err)
	}
}

func TestSweep(t *testing.T) {
	points := []float64{1, 2, 3}
	out, err := Sweep(points, 2, Options{BaseSeed: 0}, func(p float64, seed int64) (float64, error) {
		return p * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || len(out[0]) != 2 {
		t.Fatalf("shape %dx%d", len(out), len(out[0]))
	}
	for i, p := range points {
		for j := range out[i] {
			if out[i][j] != p*10 {
				t.Fatalf("out[%d][%d] = %v", i, j, out[i][j])
			}
		}
	}
	// repeats <= 0 coerces to 1.
	out, err = Sweep(points, 0, Options{}, func(p float64, seed int64) (float64, error) { return p, nil })
	if err != nil || len(out[0]) != 1 {
		t.Fatalf("repeats=0: %v %d", err, len(out[0]))
	}
}

func TestRunWithReusesStatePerWorker(t *testing.T) {
	type state struct{ scratch []int }
	var built int64
	got, err := RunWith(24, Options{Workers: 3, BaseSeed: 5},
		func() *state {
			atomic.AddInt64(&built, 1)
			return &state{scratch: make([]int, 4)}
		},
		func(s *state, seed int64) (int64, error) {
			if s == nil || len(s.scratch) != 4 {
				return 0, errors.New("state not constructed")
			}
			return seed, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 5+int64(i) {
			t.Fatalf("trial %d = %d", i, v)
		}
	}
	// One state per worker that ran at least one trial — never per trial.
	if n := atomic.LoadInt64(&built); n < 1 || n > 3 {
		t.Fatalf("newState called %d times with 3 workers", n)
	}
}

// TestRunFirstErrorDeterministic pins the cancellation error contract:
// with several deterministically failing trials racing on multiple
// workers, the surfaced error is always the smallest failing index, no
// matter which failure was observed first.
func TestRunFirstErrorDeterministic(t *testing.T) {
	for rep := 0; rep < 50; rep++ {
		_, err := Run(16, Options{Workers: 4}, func(seed int64) (int, error) {
			if seed == 3 || seed == 5 || seed == 11 {
				return 0, fmt.Errorf("trial %d failed", seed)
			}
			time.Sleep(time.Duration(seed%3) * time.Microsecond)
			return 0, nil
		})
		if err == nil || err.Error() != "trial 3 failed" {
			t.Fatalf("rep %d: err = %v, want trial 3's", rep, err)
		}
	}
}

// TestRunCancelsOutstandingAfterFailure pins the cancellation behavior
// itself: once a trial fails, undispatched trials must be skipped rather
// than run to completion.
func TestRunCancelsOutstandingAfterFailure(t *testing.T) {
	const n = 400
	var executed int64
	_, err := Run(n, Options{Workers: 2}, func(seed int64) (int, error) {
		atomic.AddInt64(&executed, 1)
		if seed == 0 {
			return 0, errors.New("early failure")
		}
		time.Sleep(200 * time.Microsecond)
		return 0, nil
	})
	if err == nil {
		t.Fatal("failure not surfaced")
	}
	if got := atomic.LoadInt64(&executed); got > n/2 {
		t.Fatalf("failure did not cancel dispatch: %d of %d trials ran", got, n)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		out, err := Run(6, Options{BaseSeed: 7, Workers: 2}, func(seed int64) (float64, error) {
			return math.Sin(float64(seed)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("parallel runs not deterministic")
		}
	}
}
