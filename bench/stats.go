package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is one metric's sample set reduced to what the result files
// carry: the median, the quartiles and the sample count.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// spread is the distance between the quartiles as a share of the
// median, in the unit the bounds are stated in.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// noise is how far the reported median itself can be expected to move
// between two runs: the samples' spread scaled down by √N, as the
// standard error of a median of N samples is. A single run cannot see
// its run-to-run spread; this is its estimate of it.
func (s summary) noise() float64 {
	if s.N < 2 {
		return 0
	}
	return s.spread() / math.Sqrt(float64(s.N))
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs; 0 for an empty sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive
// method (ranks (n+1)/4 and 3(n+1)/4, linearly interpolated between
// the neighbouring samples) — the same numbers Python's
// statistics.quantiles(xs, n=4) gives, so a spread computed here and
// one computed by a reviewer's script agree.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of
// xs, and an error when fewer than minBeyond samples lie beyond it: a
// tail read off two or three samples is an anecdote, not a percentile.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	k := int(math.Ceil(p * float64(n))) // 1-based rank
	if k < 1 || n-k < minBeyond {
		return 0, fmt.Errorf("p%.0f of %d samples has %d beyond it, need %d", 100*p, n, max(n-k, 0), minBeyond)
	}
	return rank(xs, p), nil
}

// rank is the nearest-rank p-th percentile with no claim about how many
// samples lie beyond it; 0 for an empty sample. Only ungated baselines
// use it directly.
func rank(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	k := min(max(int(math.Ceil(p*float64(len(s)))), 1), len(s))
	return s[k-1]
}

// verdict is one row's outcome in a comparison.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// worsening is how far b is worse than a, as a share of a (the base);
// negative when b is better. lowerBetter picks the direction.
func worsening(a, b float64, lowerBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if lowerBetter {
		return (b - a) / math.Abs(a)
	}
	return (a - b) / math.Abs(a)
}

// classify applies one metric's bound to a pair of runs: worse when
// b's median is worse than a's by more than the bound; unresolved when
// it is not, but either run's own noise is wider than the bound, so
// "no regression" cannot be told from chance; ok otherwise. A value
// exactly at the bound is still ok.
func classify(a, b summary, lowerBetter bool, bound float64) verdict {
	switch {
	case worsening(a.Median, b.Median, lowerBetter) > bound:
		return verdictWorse
	case a.noise() > bound || b.noise() > bound:
		return verdictUnresolved
	}
	return verdictOK
}

// outcome is what one iteration's check found.
type outcome struct {
	Err        error // the operation itself failed
	Mismatch   bool  // tables or hashes differed from the reference
	LocalEvals int64 // remote only: units that fell back to local evaluation
}

func (o outcome) failed() bool { return o.Err != nil || o.Mismatch || o.LocalEvals > 0 }

// countFailed counts failed iterations against those attempted.
func countFailed(outs []outcome) (failed, attempted int) {
	for _, o := range outs {
		if o.failed() {
			failed++
		}
	}
	return failed, len(outs)
}

// failedRatio is failed ÷ attempted; an empty run counts as failed
// outright, since nothing was shown to work.
func failedRatio(failed, attempted int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}
