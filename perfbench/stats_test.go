package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// The floor-index "p99" of 64 samples has one sample beyond it.
	if p := percentile(xs, 0.99); p.OK || p.Beyond != 0 || p.N != 64 {
		t.Fatalf("p99 of 64 samples reported: %+v", p)
	}
	if p := percentile(xs, 0.5); !p.OK || p.Value != 32 || p.Beyond != 32 {
		t.Fatalf("p50 of 1..64 = %+v, want 32 with 32 beyond", p)
	}

	xs = make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	p := percentile(xs, 0.99)
	if !p.OK || p.Value != 990 || p.Beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %+v, want 990 with 10 beyond", p)
	}
	if p := percentile(xs[:999], 0.99); p.OK {
		t.Fatalf("p99 of 999 samples has %d beyond, must be withheld", p.Beyond)
	}
}

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 15; i++ {
		xs[i] = math.Inf(1)
	}
	if p := percentile(xs, 0.9); !math.IsInf(p.Value, 1) {
		t.Fatalf("p90 with 15%% failures = %v, want +Inf", p.Value)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing must be NaN")
	}
}
