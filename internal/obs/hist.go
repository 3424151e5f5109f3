package obs

// hist.go is the log2 latency histogram, generalized out of
// cmd/cfserve's private latency.go so every binary shares one
// implementation. Buckets are powers of two over microseconds (bucket i
// holds samples in [2^(i-1), 2^i) µs), which covers sub-millisecond
// cache hits through multi-minute solves in 64 fixed counters; the
// quantiles a snapshot reports are therefore upper bucket bounds, good
// to a factor of two, which is plenty for spotting a p99 collapse.
// Observe and Snapshot are lock-free and safe to race.

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count: bucket 0 holds zero-microsecond
// samples, bucket 63 saturates (anything >= 2^62 µs, ~146 years).
const histBuckets = 64

// Histogram is a fixed log2 histogram over microseconds, safe for
// concurrent Observe and Snapshot.
type Histogram struct {
	count   atomic.Uint64
	sumUS   atomic.Uint64
	maxUS   atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one latency sample. Negative durations clamp to zero
// (a sample from a clock step must not wrap into the top bucket), and
// the top bucket saturates rather than indexing out of range.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := uint64(d.Microseconds())
	h.count.Add(1)
	h.sumUS.Add(us)
	for {
		cur := h.maxUS.Load()
		if us <= cur || h.maxUS.CompareAndSwap(cur, us) {
			break
		}
	}
	i := bits.Len64(us)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
}

// HistSnapshot is the JSON rendering of one histogram: count, mean and
// upper-bound quantiles in milliseconds.
type HistSnapshot struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// bucketUpperUS is bucket i's inclusive upper bound in microseconds:
// 2^i - 1 (bucket 0 is the zero-microsecond samples). The top bucket is
// open-ended; its bound stands in for +Inf in quantile reporting.
func bucketUpperUS(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return uint64(1)<<i - 1
}

// Snapshot renders the histogram. Concurrent observes can tear between
// count and buckets; quantiles use the bucket total so the snapshot is
// always internally consistent.
func (h *Histogram) Snapshot() HistSnapshot {
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{
		Count: h.count.Load(),
		MaxMS: float64(h.maxUS.Load()) / 1000,
	}
	if total == 0 {
		return s
	}
	s.MeanMS = float64(h.sumUS.Load()) / float64(total) / 1000
	quantile := func(q float64) float64 {
		target := uint64(math.Ceil(q * float64(total))) // nearest rank
		if target == 0 {
			target = 1
		}
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= target {
				return float64(bucketUpperUS(i)) / 1000
			}
		}
		return s.MaxMS
	}
	s.P50MS = quantile(0.50)
	s.P95MS = quantile(0.95)
	s.P99MS = quantile(0.99)
	return s
}

// expo loads the raw bucket counts, the sample total and the sum for the
// Prometheus renderer (cumulative buckets, _sum, _count).
func (h *Histogram) expo() (counts [histBuckets]uint64, total, sumUS uint64) {
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return counts, total, h.sumUS.Load()
}
