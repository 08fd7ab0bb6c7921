package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Point is one sample of a time series.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series with non-decreasing timestamps.
type Series struct {
	Name   string
	points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample; timestamps must be non-decreasing.
func (s *Series) Add(t, v float64) {
	if n := len(s.points); n > 0 && t < s.points[n-1].T {
		panic(fmt.Sprintf("stats: series %q time going backwards: %v after %v",
			s.Name, t, s.points[n-1].T))
	}
	s.points = append(s.points, Point{T: t, V: v})
}

// Reset discards all samples in place, keeping the backing array so a
// reused series does not reallocate while refilling.
func (s *Series) Reset() { s.points = s.points[:0] }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// Points returns the underlying samples (shared, do not mutate).
func (s *Series) Points() []Point { return s.points }

// At returns the value at time t using the most recent sample at or before
// t (step interpolation); ok is false before the first sample.
func (s *Series) At(t float64) (v float64, ok bool) {
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
	if i == 0 {
		return 0, false
	}
	return s.points[i-1].V, true
}

// MeanOver returns the mean of samples with T in [from, to].
func (s *Series) MeanOver(from, to float64) float64 {
	var w Welford
	for _, p := range s.points {
		if p.T >= from && p.T <= to {
			w.Add(p.V)
		}
	}
	return w.Mean()
}

// MaxOver returns the max of samples with T in [from, to]; NaN when none.
func (s *Series) MaxOver(from, to float64) float64 {
	m, any := math.Inf(-1), false
	for _, p := range s.points {
		if p.T >= from && p.T <= to {
			any = true
			if p.V > m {
				m = p.V
			}
		}
	}
	if !any {
		return math.NaN()
	}
	return m
}

// MinOver returns the min of samples with T in [from, to]; NaN when none.
func (s *Series) MinOver(from, to float64) float64 {
	m, any := math.Inf(1), false
	for _, p := range s.points {
		if p.T >= from && p.T <= to {
			any = true
			if p.V < m {
				m = p.V
			}
		}
	}
	if !any {
		return math.NaN()
	}
	return m
}

// StdOver returns the standard deviation of samples with T in [from, to]
// — the stability of the series around its own level, independent of any
// target.
func (s *Series) StdOver(from, to float64) float64 {
	var w Welford
	for _, p := range s.points {
		if p.T >= from && p.T <= to {
			w.Add(p.V)
		}
	}
	return w.Std()
}

// RMSEAgainst returns the root-mean-square error of samples in [from, to]
// against a constant target — the layer-ratio quality metric used by the
// ablation studies.
func (s *Series) RMSEAgainst(target, from, to float64) float64 {
	var sum float64
	var n int
	for _, p := range s.points {
		if p.T >= from && p.T <= to {
			d := p.V - target
			sum += d * d
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Sqrt(sum / float64(n))
}

// SeriesSet is an ordered collection of series sharing a time axis.
type SeriesSet struct {
	Series []*Series
}

// Add appends a series to the set and returns it for chaining.
func (ss *SeriesSet) Add(s *Series) *Series {
	ss.Series = append(ss.Series, s)
	return s
}

// New creates, registers and returns a named series.
func (ss *SeriesSet) New(name string) *Series {
	return ss.Add(NewSeries(name))
}

// Get returns the series with the given name, or nil.
func (ss *SeriesSet) Get(name string) *Series {
	for _, s := range ss.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// WriteCSV emits the set as CSV with a shared time column. Series are
// step-sampled at the union of all timestamps.
func (ss *SeriesSet) WriteCSV(w io.Writer) error {
	times := map[float64]struct{}{}
	for _, s := range ss.Series {
		for _, p := range s.points {
			times[p.T] = struct{}{}
		}
	}
	ts := make([]float64, 0, len(times))
	for t := range times {
		ts = append(ts, t)
	}
	sort.Float64s(ts)

	var b strings.Builder
	b.WriteString("t")
	for _, s := range ss.Series {
		b.WriteString(",")
		b.WriteString(strings.ReplaceAll(s.Name, ",", "_"))
	}
	b.WriteString("\n")
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for _, t := range ts {
		b.Reset()
		fmt.Fprintf(&b, "%g", t)
		for _, s := range ss.Series {
			if v, ok := s.At(t); ok {
				fmt.Fprintf(&b, ",%g", v)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteString("\n")
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
