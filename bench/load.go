package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sliceLen divides a window into slices. The host's speed also varies
// from second to second, so a window reports the median over its slices
// of each slice's throughput and percentiles: a burst of interference
// shifts a few slices, not the median.
const sliceLen = time.Second

// slice is what one slice of a window measured: the requests started in
// its load part, and with a reference the rate of the reference part.
type slice struct {
	start  time.Time
	load   time.Duration // how long the clients drove the server
	lat    hist
	ops    int64   // operations answered
	refRPS float64 // 0 when the slice had no reference part
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	lat       hist     // every request of the phase
	slices    []*slice // in time order
	attempted int64    // operations sent; a batch request counts batchSize
	answered  int64
	failed    int64
	spans     []span   // one per request, when traced
	errs      []string // the first failures, for the log
}

// closedLoop runs the closed loop for dur, slice by slice. With ref set,
// the last 1/refShare of every slice measures the reference instead.
func (e *env) closedLoop(g *generator, next *atomic.Uint64, dur time.Duration, tr *tracer, ref bool) (*loopResult, error) {
	res := &loopResult{}
	for left := dur; left > 0; left -= sliceLen {
		length := min(left, sliceLen)
		load := length
		if ref {
			load -= length / refShare
		}
		sl := e.drive(res, g, next, load, tr)
		if ref {
			var err error
			if sl.refRPS, err = e.refRate(length - load); err != nil {
				return nil, err
			}
		}
		res.lat.merge(&sl.lat)
		res.slices = append(res.slices, sl)
	}
	return res, nil
}

// drive runs one client per connection for dur. Each sends its next op
// only after the previous response has been read, so a slower server
// receives proportionally less load. Ops are drawn from the shared
// counter next; requests in flight at the end complete. With tr set,
// every request also records a span.
func (e *env) drive(res *loopResult, g *generator, next *atomic.Uint64, dur time.Duration, tr *tracer) *slice {
	sl := &slice{start: time.Now(), load: dur}
	end := sl.start.Add(dur)
	parts := make([]*loopResult, e.conns)
	var wg sync.WaitGroup
	for c := range parts {
		p := &loopResult{}
		parts[c] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := next.Add(1) - 1
				o := g.op(i)
				t0 := time.Now()
				status, err := e.do(o, nil)
				t1 := time.Now()
				p.lat.record(t1.Sub(t0))
				n := int64(o.size())
				p.attempted += n
				if err == nil && o.answered(status) {
					p.answered += n
				} else {
					p.failed += n
					if len(p.errs) < 3 {
						p.errs = append(p.errs, fmt.Sprintf("op %d %s %s: status %d, err %v", i, o.method(), o.path, status, err))
					}
				}
				if tr != nil {
					p.spans = append(p.spans, tr.span(layerHTTP, i, t0, t1))
				}
			}
		}()
	}
	wg.Wait()
	for _, p := range parts {
		sl.lat.merge(&p.lat)
		sl.ops += p.answered
		res.attempted += p.attempted
		res.answered += p.answered
		res.failed += p.failed
		res.spans = append(res.spans, p.spans...)
		res.errs = append(res.errs, p.errs...)
	}
	return sl
}

// sliceMedian is the median over the slices of f.
func (r *loopResult) sliceMedian(f func(*slice) float64) float64 {
	xs := make([]float64, len(r.slices))
	for k, sl := range r.slices {
		xs[k] = f(sl)
	}
	return quantile(xs, 0.5)
}

// opsPerSec is the median of the slices' answered-operation rates; scaled
// quotes each at the reference speed.
func (r *loopResult) opsPerSec(scaled bool) float64 {
	return r.sliceMedian(func(sl *slice) float64 {
		v := float64(sl.ops) / sl.load.Seconds()
		if scaled {
			v *= scaleFor(sl.refRPS)
		}
		return v
	})
}

// latencyUS is the median of the slices' q-quantile latencies; scaled
// quotes each at the reference speed.
func (r *loopResult) latencyUS(q float64, scaled bool) float64 {
	return r.sliceMedian(func(sl *slice) float64 {
		v := sl.lat.quantileUS(q)
		if scaled {
			v /= scaleFor(sl.refRPS)
		}
		return v
	})
}

// slot is when a slice started and its scale, for timing events that
// ran beside the window.
type slot struct {
	start time.Time
	scale float64
}

func (r *loopResult) slots() []slot {
	out := make([]slot, len(r.slices))
	for k, sl := range r.slices {
		out[k] = slot{sl.start, scaleFor(sl.refRPS)}
	}
	return out
}

// scaleAt is the scale of the slice under way at t, and whether t fell in
// the window at all.
func scaleAt(slots []slot, t time.Time) (float64, bool) {
	for k := len(slots) - 1; k >= 0; k-- {
		if !t.Before(slots[k].start) {
			if k == len(slots)-1 && t.Sub(slots[k].start) >= sliceLen {
				return 0, false
			}
			return slots[k].scale, true
		}
	}
	return 0, false
}

// counters is a snapshot of everything a window's per-layer metrics are
// deltas of.
type counters struct {
	cache    map[string]cacheCount // by cache layer, from GET /metrics
	admitted uint64
	shed     uint64
	cpu      time.Duration // user + system CPU of this process
	alloc    uint64        // cumulative bytes allocated
	gcs      uint32
}

type cacheCount struct{ hits, misses, evictions float64 }

func (e *env) counters() (counters, error) {
	var c counters
	var buf bytes.Buffer
	status, err := e.adminGet("/metrics", &buf)
	if err != nil || status != 200 {
		return c, fmt.Errorf("scrape /metrics: status %d, %v", status, err)
	}
	c.cache = parseCacheCounters(buf.Bytes())
	gs := e.sv.GateStats()
	c.admitted, c.shed = gs.Admitted, gs.Shed
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.gcs = ms.TotalAlloc, ms.NumGC
	return c, nil
}

// cacheFamilies maps the cache counter families of the /metrics
// exposition to the field each feeds.
var cacheFamilies = map[string]func(*cacheCount) *float64{
	"cocoserve_cache_hits_total":      func(c *cacheCount) *float64 { return &c.hits },
	"cocoserve_cache_misses_total":    func(c *cacheCount) *float64 { return &c.misses },
	"cocoserve_cache_evictions_total": func(c *cacheCount) *float64 { return &c.evictions },
}

// parseCacheCounters reads the per-layer cache counters out of a
// Prometheus text exposition. A layer the server does not export is
// simply absent from the map.
func parseCacheCounters(text []byte) map[string]cacheCount {
	out := map[string]cacheCount{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		brace := strings.IndexByte(line, '{')
		if brace < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		field, ok := cacheFamilies[line[:brace]]
		if !ok {
			continue
		}
		closing := strings.LastIndexByte(line, '}')
		if closing < brace {
			continue
		}
		layer, ok := labelValue(line[brace+1:closing], "layer")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[closing+1:]), 64)
		if err != nil {
			continue
		}
		cc := out[layer]
		*field(&cc) = v
		out[layer] = cc
	}
	return out
}

func labelValue(labels, name string) (string, bool) {
	for _, kv := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if ok && strings.TrimSpace(k) == name {
			return strings.Trim(strings.TrimSpace(v), `"`), true
		}
	}
	return "", false
}
