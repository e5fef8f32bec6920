package obs

import (
	"runtime/metrics"
	"sync"
	"time"
)

// runtime/metrics sample keys the process collectors read. Batched into
// one Read per scrape: the runtime stops the world for none of these,
// but each Read call has fixed overhead worth amortizing.
var procSamples = []metrics.Sample{
	{Name: "/sched/goroutines:goroutines"},
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/pauses:seconds"},
}

type procReader struct {
	mu      sync.Mutex
	samples []metrics.Sample
	stamp   time.Time
	v       procValues
}

type procValues struct {
	goroutines float64
	heapBytes  float64
	gcCycles   uint64
	gcPauseP99 float64
}

// read refreshes the cached values at most once per 100ms, so a scrape
// that evaluates four collector closures costs one metrics.Read. It
// returns a copy taken under the lock, so concurrent renders never read
// the cache while another refreshes it.
func (p *procReader) read() procValues {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if !p.stamp.IsZero() && now.Sub(p.stamp) < 100*time.Millisecond {
		return p.v
	}
	p.stamp = now
	metrics.Read(p.samples)
	for i := range p.samples {
		s := &p.samples[i]
		switch s.Name {
		case "/sched/goroutines:goroutines":
			p.v.goroutines = float64(s.Value.Uint64())
		case "/memory/classes/heap/objects:bytes":
			p.v.heapBytes = float64(s.Value.Uint64())
		case "/gc/cycles/total:gc-cycles":
			p.v.gcCycles = s.Value.Uint64()
		case "/gc/pauses:seconds":
			p.v.gcPauseP99 = histP99(s.Value.Float64Histogram())
		}
	}
	return p.v
}

// histP99 pulls the conservative p99 (bucket upper bound) out of a
// runtime Float64Histogram. The runtime's pause histogram has +Inf edges;
// a rank landing in the overflow bucket reports the last finite edge.
func histP99(h *metrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(0.99 * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	lastFinite := 0.0
	for i, c := range h.Counts {
		seen += c
		// Bucket i spans (Buckets[i], Buckets[i+1]].
		upper := h.Buckets[i+1]
		if upper < inf {
			lastFinite = upper
		}
		if seen > rank {
			if upper < inf {
				return upper
			}
			return lastFinite
		}
	}
	return lastFinite
}

// RegisterProcess adds the runtime-sourced process gauges and counters to
// a registry: goroutine count, live heap bytes, completed GC cycles, and
// the runtime's GC pause p99. All are sampled at scrape time.
func RegisterProcess(r *Registry, prefix string) {
	p := &procReader{samples: append([]metrics.Sample(nil), procSamples...)}
	r.NewGaugeFunc(prefix+"goroutines",
		"Current number of live goroutines.",
		func() float64 { return p.read().goroutines })
	r.NewGaugeFunc(prefix+"heap_bytes",
		"Bytes of live heap objects.",
		func() float64 { return p.read().heapBytes })
	r.NewCounterFunc(prefix+"gc_cycles_total",
		"Completed GC cycles since process start.",
		func() uint64 { return p.read().gcCycles })
	r.NewGaugeFunc(prefix+"gc_pause_p99_seconds",
		"p99 GC stop-the-world pause since process start (bucket upper bound).",
		func() float64 { return p.read().gcPauseP99 })
	r.NewGaugeFunc(prefix+"process_start_time_seconds",
		"Unix time the process started.",
		func() float64 { return float64(StartTime.UnixNano()) / 1e9 })
}
