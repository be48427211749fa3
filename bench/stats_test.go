package main

import (
	"errors"
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{10, 20}, 15, 7.5, 22.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := summarize([]float64{4, 1, 3, 2}); s.N != 4 || !near(s.spread(), 1) || !near(s.noise(), 0.5) {
		t.Errorf("summarize: n=%d spread=%v noise=%v, want 4, 1 and 0.5", s.N, s.spread(), s.noise())
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so sorting matters
		}
		return xs
	}
	if got, err := percentile(seq(100), 0.9); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with ten samples beyond", got, err)
	}
	if got, err := percentile(seq(120), 0.9); err != nil || got != 108 {
		t.Errorf("p90 of 1..120 = %v, %v; want 108", got, err)
	}
	for _, n := range []int{0, 3, 99} {
		if _, err := percentile(seq(n), 0.9); err == nil {
			t.Errorf("p90 of %d samples: want an error, fewer than ten lie beyond it", n)
		}
	}
	if _, err := percentile(seq(100), 0.95); err == nil {
		t.Error("p95 of 100 samples: want an error, only five lie beyond it")
	}
}

func TestClassifyAtTheBounds(t *testing.T) {
	flat := func(v float64) summary { return summary{Median: v, Q1: v, Q3: v, N: 100} }
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		lower := m.Better == "lower"
		// b is worse than a = 1 by the given share, in the metric's direction.
		worseBy := func(share float64) summary {
			if lower {
				return flat(1 + share)
			}
			return flat(1 - share)
		}
		if v := classify(flat(1), worseBy(m.Bound*(1-1e-9)), lower, m.Bound); v != verdictOK {
			t.Errorf("%s: just inside the bound is %s, want ok", m.Name, v)
		}
		if v := classify(flat(1), worseBy(m.Bound*(1+1e-9)), lower, m.Bound); v != verdictWorse {
			t.Errorf("%s: just outside the bound is %s, want worse", m.Name, v)
		}
		if v := classify(flat(1), worseBy(-2*m.Bound), lower, m.Bound); v != verdictOK {
			t.Errorf("%s: an improvement is %s, want ok", m.Name, v)
		}
		// Four samples spread over four bounds: the median of four is
		// uncertain by half of that, twice the bound.
		noisy := summary{Median: 1, Q1: 1 - 2*m.Bound, Q3: 1 + 2*m.Bound, N: 4}
		if v := classify(noisy, flat(1), lower, m.Bound); v != verdictUnresolved {
			t.Errorf("%s: noise of twice the bound is %s, want unresolved", m.Name, v)
		}
		steady := summary{Median: 1, Q1: 1 - 2*m.Bound, Q3: 1 + 2*m.Bound, N: 100}
		if v := classify(steady, flat(1), lower, m.Bound); v != verdictOK {
			t.Errorf("%s: the same spread over a hundred samples is %s, want ok", m.Name, v)
		}
		if v := classify(noisy, worseBy(3*m.Bound), lower, m.Bound); v != verdictWorse {
			t.Errorf("%s: worse beyond the bound is %s even when noisy, want worse", m.Name, v)
		}
	}
	// Exactly at the bound, with numbers binary floating point holds exactly.
	if v := classify(flat(4), flat(5), true, 0.25); v != verdictOK {
		t.Errorf("lower-is-better exactly at the bound is %s, want ok", v)
	}
	if v := classify(flat(4), flat(3), false, 0.25); v != verdictOK {
		t.Errorf("higher-is-better exactly at the bound is %s, want ok", v)
	}
}

func TestFailedRatio(t *testing.T) {
	outs := []outcome{
		{},
		{Err: errors.New("boom")},
		{Mismatch: true},
		{LocalEvals: 2},
		{},
	}
	failed, attempted := countFailed(outs)
	if failed != 3 || attempted != 5 {
		t.Errorf("countFailed = %d of %d, want 3 of 5", failed, attempted)
	}
	if r := failedRatio(failed, attempted); !near(r, 0.6) {
		t.Errorf("failedRatio = %v, want 0.6", r)
	}
	if r := failedRatio(0, 7); r != 0 {
		t.Errorf("failedRatio(0, 7) = %v, want 0", r)
	}
	if r := failedRatio(0, 0); r != 1 {
		t.Errorf("nothing attempted must not read as a clean run: got %v", r)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, Name: "b", StartNS: 30, EndNS: 60}, // overlaps a: the union covers 10..60
		{ID: 3, Parent: 1, Name: "leaf", StartNS: 10, EndNS: 20},
	}
	want := []int64{50, 20, 30, 10}
	for i, got := range selfTimes(spans) {
		if got.Nanoseconds() != want[i] {
			t.Errorf("self time of %s = %d ns, want %d", spans[i].Name, got.Nanoseconds(), want[i])
		}
	}
}
