package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// fewer and the percentile is one or two unlucky ops, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses when fewer than minBeyond samples lie above the chosen rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", q*100)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	return s[idx], nil
}

// median is the middle value (mean of the middle two for even counts);
// 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapProbe reads runtime/metrics counters into a reused sample slice.
type heapProbe struct{ s []metrics.Sample }

const (
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mLiveBytes    = "/gc/heap/live:bytes"
)

func newHeapProbe() *heapProbe {
	return &heapProbe{s: []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjects}, {Name: mLiveBytes}}}
}

// read returns cumulative allocated bytes, cumulative allocated objects
// and the live heap as of the last completed GC.
func (h *heapProbe) read() (allocBytes, allocObjects, live uint64) {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64(), h.s[1].Value.Uint64(), h.s[2].Value.Uint64()
}
