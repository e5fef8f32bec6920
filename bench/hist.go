package main

import (
	"math/bits"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds. Values below
// 2*subCount are exact; larger ones land in subCount sub-buckets per power
// of two (0.4% relative width). Quantiles interpolate linearly inside the
// bucket that holds the rank, so a percentile moves with its samples
// instead of snapping to a bucket bound. The counts array has a fixed size,
// which keeps the heap a run measures independent of how many requests it
// made. Values from 2^maxBits ns (about 69 s) on share the last slot. A
// hist is owned by one goroutine; merge combines them.
type hist struct {
	counts [histSlots]uint32
	n      uint64
}

const (
	subBits   = 8
	subCount  = 1 << subBits
	maxBits   = 36
	histSlots = subCount * (maxBits - subBits + 1)
)

func histIndex(v uint64) int {
	if v < 2*subCount {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return min(shift*subCount+int(v>>uint(shift)), histSlots-1)
}

// bucketBounds returns the lower bound and width of slot idx, in ns.
func bucketBounds(idx int) (lower, width float64) {
	if idx < 2*subCount {
		return float64(idx), 1
	}
	shift := idx/subCount - 1
	m := idx - shift*subCount
	return float64(uint64(m) << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileUS returns the q-quantile (0 < q < 1) in microseconds; 0 when
// the histogram is empty.
func (h *hist) quantileUS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc >= rank {
			lower, width := bucketBounds(i)
			return (lower + width*(rank-cum)/fc) / 1e3
		}
		cum += fc
	}
	lower, width := bucketBounds(histSlots - 1)
	return (lower + width) / 1e3
}
