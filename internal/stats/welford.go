// Package stats provides the measurement pipeline of the simulator:
// streaming moment accumulators, time series, histograms, and message
// traffic counters, plus CSV export used by the benchmark harness.
package stats

import "math"

// Welford is a streaming mean/variance accumulator using Welford's
// numerically stable update. The zero value is ready to use.
type Welford struct {
	n          int64
	mean, m2   float64
	min, max   float64
	hasExtrema bool
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
	if !w.hasExtrema || x < w.min {
		w.min = x
	}
	if !w.hasExtrema || x > w.max {
		w.max = x
	}
	w.hasExtrema = true
}

// Merge combines another accumulator into w (parallel-friendly: Chan et
// al. pairwise update).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
}

// Count returns the number of observations.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return 1.96 * w.Std() / math.Sqrt(float64(w.n))
}
