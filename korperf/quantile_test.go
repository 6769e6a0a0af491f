package main

import (
	"math"
	"testing"
)

func TestQuantileHarrellDavis(t *testing.T) {
	if got := quantile([]float64{7, 7, 7, 7}, 0.99); math.Abs(got-7) > 1e-9 {
		t.Errorf("constant sample: p99 = %v, want 7", got)
	}
	// 1..1001 is a uniform grid: every quantile sits on a known value and
	// the estimate must come within a few ranks of it.
	xs := make([]float64, 1001)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 501}, {0.99, 991}, {0.01, 11}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1.5 {
			t.Errorf("q=%v: got %v, want about %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{3}, 0.5); got != 3 {
		t.Errorf("single sample: got %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %v", got)
	}
}

func TestBetaIncBounds(t *testing.T) {
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},             // uniform CDF
		{2, 1, 0.5, 0.25},            // x^2
		{1015.74, 10.26, 0, 0},       // lower end
		{1015.74, 10.26, 1, 1},       // upper end
		{20296.5, 205.01, 0.99, 0.5}, // the mean of a tight Beta sits near its median
	} {
		got := betaInc(c.a, c.b, c.x)
		tol := 1e-9
		if c.a > 1000 && c.x > 0 && c.x < 1 {
			tol = 0.05
		}
		if math.Abs(got-c.want) > tol {
			t.Errorf("I_%v(%v,%v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}
