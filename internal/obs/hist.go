package obs

// hist.go is the log2 latency histogram, generalized out of
// cmd/cfserve's private latency.go so every binary shares one
// implementation. Buckets are powers of two over microseconds (bucket i
// holds samples in [2^(i-1), 2^i) µs), which covers sub-millisecond
// cache hits through multi-minute solves in 64 fixed counters. It keeps
// only what /metrics renders: the buckets and the sum. Observe and the
// renderer's read are lock-free and safe to race.

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count: bucket 0 holds zero-microsecond
// samples, bucket 63 saturates (anything >= 2^62 µs, ~146 years).
const histBuckets = 64

// Histogram is a fixed log2 histogram over microseconds, safe for
// concurrent Observe and rendering.
type Histogram struct {
	sumUS   atomic.Uint64
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
	h.sumUS.Add(us)
	i := bits.Len64(us)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
}

// bucketUpperUS is bucket i's inclusive upper bound in microseconds:
// 2^i - 1 (bucket 0 is the zero-microsecond samples). The top bucket is
// open-ended; the renderer writes it as le="+Inf".
func bucketUpperUS(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return uint64(1)<<i - 1
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
