// Package loghist is the repo's shared lock-free log2 histogram: bucket
// i counts observations v with bits.Len64(v) == i, so bucket 0 holds
// zeros and bucket i (i ≥ 1) holds v ∈ [2^(i-1), 2^i). Values are
// whatever unit the caller observes — the serving tier records request
// microseconds, the engines record commit-latency microseconds and
// attempts-per-commit — and quantiles come back as the bucket's upper
// bound, an overestimate by at most 2×. That resolution is the price of
// a histogram whose observe path is three atomic adds and no
// allocation, cheap enough for every request and for sampled engine
// commits. Both the serving tier and the engines use this one type so
// bucket semantics cannot drift between them.
package loghist

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NBuckets is the fixed bucket count. The top bucket saturates: it
// absorbs every observation of 2^(NBuckets-2) or more.
const NBuckets = 32

// Hist is the live histogram. The zero value is ready to use; all
// methods are safe for concurrent use.
type Hist struct {
	buckets [NBuckets]atomic.Uint64
	count   atomic.Uint64
	errs    atomic.Uint64
	sum     atomic.Uint64
}

// bucketOf maps a value to its bucket index, clamping into the
// saturating top bucket.
func bucketOf(v uint64) int {
	b := bits.Len64(v) // 0 → bucket 0, [2^(i-1),2^i) → bucket i
	if b >= NBuckets {
		b = NBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveErr records one value and, when isErr is set, bumps the error
// counter alongside it (the serving tier's per-endpoint failure count).
func (h *Hist) ObserveErr(v uint64, isErr bool) {
	h.Observe(v)
	if isErr {
		h.errs.Add(1)
	}
}

// ObserveDuration records a duration in microseconds.
func (h *Hist) ObserveDuration(d time.Duration, isErr bool) {
	h.ObserveErr(uint64(d.Microseconds()), isErr)
}

// Count returns the number of observations so far.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Errors returns the number of ObserveErr calls with isErr set.
func (h *Hist) Errors() uint64 { return h.errs.Load() }

// Quantile returns the upper bound of the bucket holding the q-th
// observation (0 for an empty histogram). q is clamped to [0, 1); a
// rank at or past the last observation resolves to the final
// observation's bucket, so Quantile(1.0) is the max-holding bucket's
// upper bound.
func (h *Hist) Quantile(q float64) uint64 { return h.Snapshot().Quantile(q) }

// Snapshot is a point-in-time copy of a Hist. Counters are read
// per-bucket atomically, not as a consistent cut across buckets — the
// monitoring-read semantics the engines' ReadStats already uses.
type Snapshot struct {
	Count   uint64
	Errors  uint64
	Sum     uint64
	Buckets [NBuckets]uint64
}

// Snapshot copies the current counters.
func (h *Hist) Snapshot() Snapshot {
	var s Snapshot
	s.Count = h.count.Load()
	s.Errors = h.errs.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns the upper bound of the bucket holding the q-th
// observation; see Hist.Quantile.
func (s Snapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for i, b := range s.Buckets {
		seen += b
		if seen > rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NBuckets - 1)
}

// Mean returns the integer mean of the observed values (0 when empty).
func (s Snapshot) Mean() uint64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Sub returns the counter deltas s - t, for interval views over a live
// histogram (tmstat's per-tick rendering).
func (s Snapshot) Sub(t Snapshot) Snapshot {
	d := Snapshot{
		Count:  s.Count - t.Count,
		Errors: s.Errors - t.Errors,
		Sum:    s.Sum - t.Sum,
	}
	for i := range s.Buckets {
		d.Buckets[i] = s.Buckets[i] - t.Buckets[i]
	}
	return d
}

// BucketUpper returns the quantile upper bound reported for bucket i:
// 1 for the zero bucket, else 2^i. The top bucket saturates, so its
// bound is a floor on the true value, not a ceiling.
func BucketUpper(i int) uint64 {
	if i == 0 {
		return 1
	}
	return 1 << uint(i)
}

// BucketMax returns the largest integer value bucket i can hold
// (2^i - 1), the inclusive "le" bound a Prometheus cumulative bucket
// needs. The saturating top bucket has no finite max; callers render it
// as +Inf and must not ask for its BucketMax.
func BucketMax(i int) uint64 { return 1<<uint(i) - 1 }
