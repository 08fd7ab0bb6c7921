package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dlm/internal/msg"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(w.Var()-32.0/7) > 1e-12 {
		t.Errorf("var = %v, want %v", w.Var(), 32.0/7)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %v/%v", w.Min(), w.Max())
	}
	if w.CI95() <= 0 {
		t.Error("CI95 should be positive with n>1")
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 || w.CI95() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	w.Add(3)
	if w.Var() != 0 || w.CI95() != 0 {
		t.Error("single sample should have zero variance")
	}
}

// Property: merging two accumulators equals accumulating the concatenation.
func TestWelfordMergeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		var wa, wb, all Welford
		for _, x := range a {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			// Guard magnitude so float error doesn't dominate.
			x = math.Mod(x, 1e6)
			wa.Add(x)
			all.Add(x)
		}
		for _, x := range b {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			x = math.Mod(x, 1e6)
			wb.Add(x)
			all.Add(x)
		}
		wa.Merge(wb)
		if wa.Count() != all.Count() {
			return false
		}
		if all.Count() == 0 {
			return true
		}
		scale := math.Max(1, math.Abs(all.Mean()))
		return math.Abs(wa.Mean()-all.Mean()) < 1e-9*scale &&
			math.Abs(wa.Var()-all.Var()) < 1e-6*math.Max(1, all.Var())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesAtAndLast(t *testing.T) {
	s := NewSeries("x")
	if _, ok := s.At(5); ok {
		t.Fatal("empty series reported At")
	}
	s.Add(1, 10)
	s.Add(3, 30)
	s.Add(3, 35) // duplicate timestamps allowed
	s.Add(7, 70)
	cases := []struct {
		t    float64
		want float64
		ok   bool
	}{{0.5, 0, false}, {1, 10, true}, {2, 10, true}, {3, 35, true}, {6.9, 35, true}, {7, 70, true}, {100, 70, true}}
	for _, c := range cases {
		got, ok := s.At(c.t)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("At(%v) = %v,%v want %v,%v", c.t, got, ok, c.want, c.ok)
		}
	}
}

func TestSeriesBackwardsTimePanics(t *testing.T) {
	s := NewSeries("x")
	s.Add(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time did not panic")
		}
	}()
	s.Add(4, 1)
}

func TestSeriesAggregates(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i <= 10; i++ {
		s.Add(float64(i), float64(i))
	}
	if m := s.MeanOver(0, 10); math.Abs(m-5) > 1e-12 {
		t.Errorf("MeanOver = %v", m)
	}
	if m := s.MaxOver(2, 4); m != 4 {
		t.Errorf("MaxOver = %v", m)
	}
	if m := s.MinOver(2, 4); m != 2 {
		t.Errorf("MinOver = %v", m)
	}
	if !math.IsNaN(s.MaxOver(20, 30)) || !math.IsNaN(s.MinOver(20, 30)) {
		t.Error("empty window should be NaN")
	}
	if r := s.RMSEAgainst(5, 0, 10); math.Abs(r-math.Sqrt(10)) > 1e-9 {
		t.Errorf("RMSE = %v, want sqrt(10)", r)
	}
	if !math.IsNaN(s.RMSEAgainst(5, 20, 30)) {
		t.Error("empty-window RMSE should be NaN")
	}
}

func TestSeriesSetCSV(t *testing.T) {
	var ss SeriesSet
	a := ss.New("a")
	b := ss.New("b")
	a.Add(1, 10)
	a.Add(2, 20)
	b.Add(2, 200)
	var sb strings.Builder
	if err := ss.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "t,a,b\n1,10,\n2,20,200\n"
	if got != want {
		t.Errorf("CSV:\n%s\nwant:\n%s", got, want)
	}
	if ss.Get("a") != a || ss.Get("nope") != nil {
		t.Error("Get misbehaves")
	}
}

func TestTraffic(t *testing.T) {
	var tr Traffic
	q := msg.NewQuery(1, 2, 1, 1, 5)
	nr := msg.NeighNumRequest(1, 2)
	vr := msg.ValueResponse(2, 1, 10, 20)
	for i := 0; i < 3; i++ {
		tr.Record(&q)
	}
	tr.Record(&nr)
	tr.Record(&vr)
	bad := msg.Message{Kind: msg.KindInvalid}
	tr.Record(&bad) // ignored

	if tr.Count(msg.KindQuery) != 3 {
		t.Errorf("query count = %d", tr.Count(msg.KindQuery))
	}
	if tr.Bytes(msg.KindQuery) != 3*uint64(q.WireSize()) {
		t.Errorf("query bytes = %d", tr.Bytes(msg.KindQuery))
	}
	if tr.DLMMessages() != 2 {
		t.Errorf("DLM messages = %d, want 2", tr.DLMMessages())
	}
	if tr.SearchMessages() != 3 {
		t.Errorf("search messages = %d, want 3", tr.SearchMessages())
	}
	if tr.TotalMessages() != 5 {
		t.Errorf("total = %d, want 5", tr.TotalMessages())
	}
	if tr.DLMBytes()+tr.SearchBytes() != tr.TotalBytes() {
		t.Error("byte accounting does not partition")
	}
	if tr.Count(msg.KindInvalid) != 0 || tr.Bytes(msg.Kind(99)) != 0 {
		t.Error("invalid kinds should read zero")
	}

	var other Traffic
	other.Record(&q)
	tr.Merge(&other)
	if tr.Count(msg.KindQuery) != 4 {
		t.Errorf("merged query count = %d", tr.Count(msg.KindQuery))
	}
	if s := tr.String(); !strings.Contains(s, "query=4") {
		t.Errorf("String() = %q", s)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i%10) + 0.5)
	}
	h.Add(-5) // under
	h.Add(15) // over
	if h.Count() != 102 {
		t.Errorf("count = %d", h.Count())
	}
	if h.bins[0] != 10 {
		t.Errorf("bin 0 = %d", h.bins[0])
	}
	if q := h.Quantile(0.5); q < 4 || q > 6 {
		t.Errorf("median = %v", q)
	}
	if s := h.String(); !strings.Contains(s, "n=102") {
		t.Errorf("String = %q", s)
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	h.Add(0)        // exactly lo -> bin 0
	h.Add(0.999999) // last bin
	h.Add(1)        // hi is exclusive -> overflow
	if h.bins[0] != 1 {
		t.Errorf("bin0 = %d", h.bins[0])
	}
	if h.bins[3] != 1 {
		t.Errorf("bin3 = %d", h.bins[3])
	}
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	if q := h.Quantile(0); q != 0.125 {
		t.Errorf("Quantile(0) = %v", q)
	}
}

func TestHistogramConstructionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad histogram construction did not panic")
		}
	}()
	NewHistogram(5, 5, 10)
}
