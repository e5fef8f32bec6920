package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions; bench_test.go keeps
// the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the server sees and what repeats within
// each metric's bound on the host the bounds were set on; a run with
// tracing off reports exactly these. setup_s is quoted at the reference
// speed (ref.go); raw.setup_s is the same number unscaled.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
}

// perLayer is what a traced run reports: one or more metrics per layer,
// each measured from outside the layer, and the end-to-end timings that
// did not repeat within a tenth of their median (README.md), as
// diagnostics.
var perLayer = []metricDef{
	{"throughput_ops", "ops/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"publish_p50_ms", "ms", "lower"},
	{"setup.build_s", "s", "lower"},
	{"setup.save_s", "s", "lower"},
	{"setup.load_s", "s", "lower"},
	{"setup.serve_s", "s", "lower"},
	{"net.self_us", "us", "lower"},
	{"client.p999_us", "us", "lower"},
	{"serve.handler_us", "us", "lower"},
	{"serve.self_us", "us", "lower"},
	{"qcache.search_bytes.hit_ratio", "ratio", "higher"},
	{"qcache.recommend_bytes.hit_ratio", "ratio", "higher"},
	{"qcache.search.hit_ratio", "ratio", "higher"},
	{"qcache.recommend.hit_ratio", "ratio", "higher"},
	{"qcache.evictions_per_kop", "count/kop", "lower"},
	{"facade.call_us", "us", "lower"},
	{"facade.self_us", "us", "lower"},
	{"search.engine_us", "us", "lower"},
	{"recommend.engine_us", "us", "lower"},
	{"gate.admitted", "count", "higher"},
	{"gate.shed", "count", "lower"},
	{"snapshot.save_ms", "ms", "lower"},
	{"snapshot.reload_ms", "ms", "lower"},
	{"publish_p90_ms", "ms", "lower"},
	{"process.cpu_us_per_op", "us/op", "lower"},
	{"process.alloc_bytes_per_op", "B/op", "lower"},
	{"process.gc_per_kop", "count/kop", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"error_ratio", "ratio", "lower"},
	{"host.ref_rps", "req/s", "higher"},
	{"raw.setup_s", "s", "lower"},
	{"raw.throughput_ops", "ops/s", "higher"},
	{"raw.latency_p50_us", "us", "lower"},
	{"raw.latency_p99_us", "us", "lower"},
	{"raw.publish_p50_ms", "ms", "lower"},
}

// windowValues derives the window's metrics: the closed loop's own
// numbers, and the deltas of the server's and the process's counters.
func windowValues(v map[string]float64, res *loopResult, before, after counters) {
	v["throughput_ops"] = res.opsPerSec(true)
	v["latency_p50_us"] = res.latencyUS(0.50, true)
	v["latency_p99_us"] = res.latencyUS(0.99, true)
	v["raw.throughput_ops"] = res.opsPerSec(false)
	v["raw.latency_p50_us"] = res.latencyUS(0.50, false)
	v["raw.latency_p99_us"] = res.latencyUS(0.99, false)
	v["host.ref_rps"] = res.sliceMedian(func(sl *slice) float64 { return sl.refRPS })
	v["client.p999_us"] = res.lat.quantileUS(0.999)
	v["error_ratio"] = ratio(float64(res.failed), float64(res.attempted))

	kops := float64(res.answered) / 1e3
	var evictions float64
	for name, a := range after.cache {
		b := before.cache[name]
		hits, misses := a.hits-b.hits, a.misses-b.misses
		v["qcache."+name+".hit_ratio"] = ratio(hits, hits+misses)
		evictions += a.evictions - b.evictions
	}
	v["qcache.evictions_per_kop"] = ratio(evictions, kops)
	v["gate.admitted"] = float64(after.admitted - before.admitted)
	v["gate.shed"] = float64(after.shed - before.shed)
	v["process.cpu_us_per_op"] = ratio((after.cpu-before.cpu).Seconds()*1e6, float64(res.answered))
	v["process.alloc_bytes_per_op"] = ratio(float64(after.alloc-before.alloc), float64(res.answered))
	v["process.gc_per_kop"] = ratio(float64(after.gcs-before.gcs), kops)
}

func publishValues(v map[string]float64, samples []publishTimes) {
	var scaled, total, save, reload []float64
	for _, s := range samples {
		scaled = append(scaled, (s.SaveMS+s.ReloadMS)/s.Scale)
		total = append(total, s.SaveMS+s.ReloadMS)
		save = append(save, s.SaveMS)
		reload = append(reload, s.ReloadMS)
	}
	v["publish_p50_ms"] = quantile(scaled, 0.5)
	v["raw.publish_p50_ms"] = quantile(total, 0.5)
	v["publish_p90_ms"] = quantile(total, 0.9)
	v["snapshot.save_ms"] = quantile(save, 0.5)
	v["snapshot.reload_ms"] = quantile(reload, 0.5)
}

// passValues derives the per-layer times from the traced passes. Means
// are used because they add up: a layer's self time is its mean minus
// the mean time of the calls it makes into the layer below.
func passValues(v map[string]float64, passes map[string]*pass) {
	httpUS := passes["http"].meanUS(layerHTTP)
	hp := passes["handler"]
	handlerUS := hp.meanUS(layerHandler)
	facadeUS := passes["facade"].meanUS(layerFacade)
	ep := passes["engine"]
	v["net.self_us"] = httpUS - handlerUS
	v["serve.handler_us"] = handlerUS
	v["serve.self_us"] = handlerUS - ratio(float64(hp.misses), float64(hp.ops))*facadeUS
	v["facade.call_us"] = facadeUS
	v["facade.self_us"] = facadeUS - ep.perOpUS(layerSearchEngine, layerRecommendEngine)
	v["search.engine_us"] = ep.meanUS(layerSearchEngine)
	v["recommend.engine_us"] = ep.meanUS(layerRecommendEngine)
}

// setupValues reports the median of every set-up sample; setup_s scaled
// by the reference each set-up measured, the parts raw.
func setupValues(v map[string]float64, samples []setupTimes) {
	pick := func(f func(setupTimes) float64) float64 {
		var xs []float64
		for _, s := range samples {
			xs = append(xs, f(s))
		}
		return quantile(xs, 0.5)
	}
	v["setup_s"] = pick(func(s setupTimes) float64 { return s.Total / scaleFor(s.RefRPS) })
	v["raw.setup_s"] = pick(func(s setupTimes) float64 { return s.Total })
	v["setup.build_s"] = pick(func(s setupTimes) float64 { return s.Build })
	v["setup.save_s"] = pick(func(s setupTimes) float64 { return s.Save })
	v["setup.load_s"] = pick(func(s setupTimes) float64 { return s.Load })
	v["setup.serve_s"] = pick(func(s setupTimes) float64 { return s.Serve })
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
