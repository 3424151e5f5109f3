package obs

// hist_test.go pins the histogram's edge cases on what the renderer
// reads (expo): an empty histogram, sub-microsecond samples landing in
// bucket 0, negative durations clamping instead of wrapping into the top
// bucket, the saturating top bucket, the log2 bucket bounds, and
// concurrent observe/read safety under -race.

import (
	"math"
	"math/bits"
	"sync"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	counts, total, sumUS := h.expo()
	if total != 0 || sumUS != 0 {
		t.Fatalf("empty expo: total %d sum %d", total, sumUS)
	}
	for i, c := range counts {
		if c != 0 {
			t.Fatalf("bucket %d nonzero on empty histogram", i)
		}
	}
}

func TestHistogramSubMicrosecondBucketZero(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(500 * time.Nanosecond) // truncates to 0 µs
	counts, total, sumUS := h.expo()
	if total != 2 || counts[0] != 2 || sumUS != 0 {
		t.Fatalf("sub-microsecond samples landed outside bucket 0: total %d, bucket0 %d, sum %d", total, counts[0], sumUS)
	}
}

func TestHistogramNegativeDurationClamps(t *testing.T) {
	var h Histogram
	// Before the clamp this wrapped to a huge uint64, bits.Len64 = 64,
	// and indexed out of the 64-bucket array.
	h.Observe(-time.Second)
	counts, total, sumUS := h.expo()
	if total != 1 || counts[0] != 1 || sumUS != 0 {
		t.Fatalf("negative duration not clamped to bucket 0: total %d bucket0 %d sum %d", total, counts[0], sumUS)
	}
}

func TestHistogramTopBucketSaturates(t *testing.T) {
	var h Histogram
	// The largest representable duration (~292 years) must land in its
	// log2 bucket without indexing out of the array; the explicit clamp
	// to bucket 63 is defensive headroom beyond what time.Duration can
	// express.
	huge := time.Duration(math.MaxInt64)
	h.Observe(huge)
	want := bits.Len64(uint64(huge.Microseconds()))
	counts, total, sumUS := h.expo()
	if total != 1 || counts[want] != 1 {
		t.Fatalf("huge duration missed bucket %d: total %d counts[%d]=%d", want, total, want, counts[want])
	}
	if sumUS != uint64(huge.Microseconds()) {
		t.Fatalf("sum = %d µs, want %d", sumUS, huge.Microseconds())
	}
}

func TestHistogramQuantileUpperBounds(t *testing.T) {
	var h Histogram
	// 90 samples at 1ms, 10 at 100ms: each lands in the log2 bucket whose
	// upper bound the renderer writes as its le.
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	counts, total, sumUS := h.expo()
	if total != 100 || sumUS != 90*1000+10*100000 {
		t.Fatalf("total %d sum %d µs, want 100 and 1090000", total, sumUS)
	}
	// 1000 µs lands in bucket 10 ([512, 1024)), upper bound 1023 µs.
	if counts[10] != 90 || bucketUpperUS(10) != 1023 {
		t.Fatalf("bucket 10 holds %d (bound %d µs), want the 90 1ms samples under 1023 µs", counts[10], bucketUpperUS(10))
	}
	// 100000 µs lands in bucket 17 ([65536, 131072)), upper bound 131071 µs.
	if counts[17] != 10 || bucketUpperUS(17) != 131071 {
		t.Fatalf("bucket 17 holds %d (bound %d µs), want the 10 100ms samples under 131071 µs", counts[17], bucketUpperUS(17))
	}
}

func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	var h Histogram
	const (
		writers = 8
		perG    = 2000
	)
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // concurrent reader: -race plus a monotone sample total
		defer reader.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, total, _ := h.expo()
			if total < last {
				t.Errorf("torn read: total fell from %d to %d", last, total)
				return
			}
			last = total
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	_, total, sumUS := h.expo()
	var wantSum uint64
	for g := 0; g < writers; g++ {
		for i := 0; i < perG; i++ {
			wantSum += uint64(g * i)
		}
	}
	if total != writers*perG || sumUS != wantSum {
		t.Fatalf("total %d sum %d, want %d and %d", total, sumUS, writers*perG, wantSum)
	}
}
