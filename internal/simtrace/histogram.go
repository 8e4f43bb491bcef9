package simtrace

import "math/bits"

// NumHistogramBuckets is the fixed bucket count of every Histogram: bucket 0
// collects non-positive observations, bucket i (1 ≤ i ≤ 63) collects values
// in [2^(i-1), 2^i) — bucket 63's upper range is capped by int64 itself, so
// every possible observation has a bucket. A fixed power-of-two bucketing
// keeps Observe a single array increment — deterministic, allocation-free,
// and byte-stable in snapshots regardless of the observed value range.
const NumHistogramBuckets = 64

// BucketOf returns the bucket index an observation falls into: 0 for v ≤ 0,
// otherwise 1 + floor(log2(v)) — i.e. v ∈ [2^(i-1), 2^i) maps to bucket i.
// Exported so bucket-boundary tests and renderers share one definition.
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Histogram is a fixed-bucket log2 histogram (partition sizes, burst
// lengths). Like Counter and Gauge, all methods are nil-receiver no-ops and
// Observe never allocates: disabled runs pay one nil check, enabled runs a
// bounds-checked array increment.
type Histogram struct {
	count   int64
	max     int64
	seen    bool
	buckets [NumHistogramBuckets]int64
}

// Observe records v.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[BucketOf(v)]++
	h.count++
	if !h.seen || v > h.max {
		h.max = v
		h.seen = true
	}
}

// sparse returns the non-empty buckets in ascending exponent order — the
// snapshot representation, which stays compact however wide the bucket
// array is.
func (h *Histogram) sparse() []HistogramBucket {
	var out []HistogramBucket
	for exp, n := range h.buckets {
		if n != 0 {
			out = append(out, HistogramBucket{Exp: exp, Count: n})
		}
	}
	return out
}
