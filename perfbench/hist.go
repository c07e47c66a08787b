package main

import "math/bits"

// latHist is a latency histogram in nanoseconds: exact 1 ns buckets below
// linearNs, then 2^subBits buckets per power of two (under 1% wide) up to
// 2^maxExp ns. Percentiles interpolate linearly inside a bucket, treating
// a reading of v ns as uniform over [v, v+1), so they vary continuously
// with the distribution instead of snapping to whole nanoseconds.
type latHist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	linearNs    = 4096
	linearExp   = 12 // log2(linearNs)
	subBits     = 7
	maxExp      = 36 // readings at or above 2^36 ns (~69 s) are clamped
	histBuckets = linearNs + (maxExp-linearExp)<<subBits
)

func bucketOf(ns int64) int {
	if ns < linearNs {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1
	if e >= maxExp {
		return histBuckets - 1
	}
	sub := int(ns>>(e-subBits)) & (1<<subBits - 1)
	return linearNs + (e-linearExp)<<subBits + sub
}

// bucketBounds returns bucket i's range [lo, hi) in ns.
func bucketBounds(i int) (lo, hi float64) {
	if i < linearNs {
		return float64(i), float64(i + 1)
	}
	e := linearExp + (i-linearNs)>>subBits
	sub := (i - linearNs) & (1<<subBits - 1)
	w := int64(1) << (e - subBits)
	l := int64(1)<<e + int64(sub)*w
	return float64(l), float64(l + w)
}

func (h *latHist) add(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// minBeyond is the sample-count rule: a percentile is reported only when
// at least this many samples lie beyond it.
const minBeyond = 10

// quantile returns the p-quantile (0 < p < 1) and whether the histogram
// holds enough samples to report it: at least minBeyond above it.
func (h *latHist) quantile(p float64) (float64, bool) {
	if h.n == 0 || float64(h.n)*(1-p) < minBeyond {
		return 0, false
	}
	rank := p * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(c), true
		}
		cum += float64(c)
	}
	_, hi := bucketBounds(histBuckets - 1) // unreachable: cum reaches n >= rank
	return hi, true
}
