// Package latencyhist is the shared power-of-two latency histogram: a
// fixed-width array of buckets where bucket i counts samples in
// [2^i, 2^(i+1)) microseconds. It exists so every per-sample-history-free
// tail estimate in the system — the admission controller's latency
// histogram (and the p99 the end-to-end benchmark reads from it), the
// macro-workload scorecard's per-op-class p50/p99/p99.9 — shares one bucket
// math and one conservative quantile, instead of each package growing its
// own slightly-different copy.
//
// The representation is deliberately coarse: 30 power-of-two buckets cover
// sub-microsecond to ~9 minutes, quantiles round up to the containing
// bucket's upper bound, and a histogram is a plain value (an array, not a
// struct with a mutex) so callers snapshot and diff it freely. Callers that
// need concurrency guard it with their own lock, exactly as
// internal/admission does.
package latencyhist

import (
	"math"
	"time"
)

// Buckets is the histogram width: 2^29 µs ≈ 9 minutes tops.
const Buckets = 30

// Hist is a power-of-two latency histogram: bucket i counts samples in
// [2^i, 2^(i+1)) microseconds (bucket 0 also absorbs sub-microsecond
// samples). The zero value is an empty histogram ready to use.
type Hist [Buckets]uint64

// BucketOf maps a latency to its histogram bucket.
func BucketOf(d time.Duration) int {
	us := d.Microseconds()
	b := 0
	for us > 1 && b < Buckets-1 {
		us >>= 1
		b++
	}
	return b
}

// UpperBound is the inclusive-estimate upper bound reported for bucket i —
// the value Quantile returns when the requested rank lands there.
func UpperBound(i int) time.Duration {
	return time.Duration(1<<uint(i+1)) * time.Microsecond
}

// Observe records one sample.
func (h *Hist) Observe(d time.Duration) {
	h[BucketOf(d)]++
}

// Total is the number of recorded samples.
func (h Hist) Total() uint64 {
	var total uint64
	for _, n := range h {
		total += n
	}
	return total
}

// Delta returns the bucket-wise difference h - prev: the histogram of the
// samples recorded since prev was snapshotted. Callers windowing a
// monotonically growing histogram (the end-to-end benchmark's admission
// p99 over its measured window) diff successive snapshots with it.
func (h Hist) Delta(prev Hist) Hist {
	var out Hist
	for i := range h {
		out[i] = h[i] - prev[i]
	}
	return out
}

// Quantile estimates the q-quantile (q in [0,1], e.g. 0.99) of the recorded
// samples, taking each bucket at its upper bound (conservative: the
// estimate rounds up). Zero when empty. q is clamped to [0,1] (NaN counts
// as 0): float-to-uint conversion of a negative or NaN value is
// implementation-defined by the Go spec, and tail figures reported by the
// scorecard, the benchmarks and the CI gates must never go undefined.
func (h Hist) Quantile(q float64) time.Duration {
	if math.IsNaN(q) || q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	total := h.Total()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, n := range h {
		seen += n
		if seen > rank {
			return UpperBound(i)
		}
	}
	// Unreachable: seen reaches total > rank inside the loop.
	return UpperBound(Buckets - 1)
}
