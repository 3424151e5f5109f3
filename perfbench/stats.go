package main

// stats.go holds the percentile rules the benchmark reports by.

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// errTail marks a run whose sample cannot support a reported percentile.
var errTail = errors.New("sample too small for a reported percentile")

// quantile returns the nearest-rank q-quantile of xs. It fails rather
// than report a percentile with fewer than minBeyond samples beyond it:
// a p99 needs at least 1000 samples.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", 100*q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := max(int(math.Ceil(q*float64(n)))-1, 0)
	if beyond := n - 1 - i; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*q, n, beyond, minBeyond)
	}
	return s[i], nil
}

// windowed splits xs, in schedule order, into as many consecutive windows
// of at least size samples as it holds, takes each window's q-quantile
// under the same rule, and returns their median. A burst of host noise
// then moves one window's figure instead of the run's.
func windowed(xs []float64, q float64, size int) (float64, error) {
	k := max(1, len(xs)/size)
	vals := make([]float64, 0, k)
	for w := 0; w < k; w++ {
		v, err := quantile(xs[w*len(xs)/k:(w+1)*len(xs)/k], q)
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return medianOf(vals), nil
}

// tailOrLower is quantile for per-layer figures: when the sample is too
// small for q, it returns the highest rank that still has minBeyond
// samples beyond it (and the lowest sample below that size), so a
// per-layer tail never rests on fewer than ten values.
func tailOrLower(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := min(max(int(math.Ceil(q*float64(n)))-1, 0), max(n-1-minBeyond, 0))
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
