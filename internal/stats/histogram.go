package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width-bin histogram over [Lo, Hi) with overflow and
// underflow buckets.
type Histogram struct {
	Lo, Hi   float64
	bins     []uint64
	under    uint64
	over     uint64
	observed Welford
}

// NewHistogram returns a histogram with n equal bins over [lo, hi); it
// panics for a degenerate range or non-positive bin count.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || !(lo < hi) {
		panic(fmt.Sprintf("stats: bad histogram [%v,%v) n=%d", lo, hi, n))
	}
	return &Histogram{Lo: lo, Hi: hi, bins: make([]uint64, n)}
}

// Reset clears all observations in place, keeping the bin layout and the
// backing array (no reallocation: reset is the per-window hot path of
// warm-up-then-measure runs).
func (h *Histogram) Reset() {
	clear(h.bins)
	h.under, h.over = 0, 0
	h.observed = Welford{}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.observed.Add(x)
	switch {
	case x < h.Lo:
		h.under++
	case x >= h.Hi:
		h.over++
	default:
		i := int(float64(len(h.bins)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i == len(h.bins) { // float edge
			i--
		}
		h.bins[i]++
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	total := h.under + h.over
	for _, b := range h.bins {
		total += b
	}
	return total
}

// Quantile returns an approximation of the q-quantile (q in [0,1]) using
// the bin midpoints; under/overflow map to Lo/Hi.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return math.NaN()
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	if cum += h.under; cum >= target {
		return h.Lo
	}
	width := (h.Hi - h.Lo) / float64(len(h.bins))
	for i, b := range h.bins {
		if cum += b; cum >= target {
			return h.Lo + (float64(i)+0.5)*width
		}
	}
	return h.Hi
}

// Mean returns the exact mean of all observations.
func (h *Histogram) Mean() float64 { return h.observed.Mean() }

// String renders a one-line summary.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.3g p50=%.3g p90=%.3g p99=%.3g",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99))
	return b.String()
}
