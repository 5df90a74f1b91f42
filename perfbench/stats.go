package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a tail percentile's rank
// before it is reported: a "p99" of 64 samples has one sample beyond it
// and says nothing about the tail.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value of xs (mean of the middle two for an even
// count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Pct is one tail percentile with the evidence behind it.
type Pct struct {
	P      float64 // quantile in (0, 1)
	Value  float64 // nearest-rank value; meaningful only when OK
	N      int     // sample count
	Beyond int     // samples strictly above the value's rank
	OK     bool    // Beyond >= minBeyond
}

// percentile returns the nearest-rank p-quantile of the samples. Failed
// requests enter as +Inf, so they count as missing any latency limit.
// The result is reportable (OK) only with at least minBeyond samples
// beyond its rank.
func percentile(xs []float64, p float64) Pct {
	s := sorted(xs)
	n := len(s)
	out := Pct{P: p, N: n, Value: math.NaN()}
	if n == 0 {
		return out
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	out.Value = s[rank-1]
	out.Beyond = n - rank
	out.OK = out.Beyond >= minBeyond
	return out
}

// String renders the percentile with its sample count, or says why it
// is withheld.
func (p Pct) String() string {
	if !p.OK {
		return fmt.Sprintf("n/a (n=%d, %d beyond p%g; need %d)", p.N, p.Beyond, p.P*100, minBeyond)
	}
	return fmt.Sprintf("%.4g (n=%d, %d beyond)", p.Value, p.N, p.Beyond)
}
