package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryRenderParsesRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_requests_total", "Requests seen.", "endpoint", "search")
	c.Add(42)
	c2 := r.NewCounter("test_requests_total", "Requests seen.", "endpoint", "recommend")
	c2.Add(7)
	r.NewGaugeFunc("test_depth", "Queue depth.", func() float64 { return 3.5 })
	r.NewCounterFunc("test_hits_total", "Hits.", func() uint64 { return 99 }, "layer", "search")
	h := r.NewHistogram("test_latency_seconds", "Latency.", "endpoint", "search")
	for i := 1; i <= 500; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}

	out := r.AppendText(nil)
	p, err := ParseText(out)
	if err != nil {
		t.Fatalf("render did not parse: %v\n%s", err, out)
	}
	if v, ok := p.Value("test_requests_total", "endpoint", "search"); !ok || v != 42 {
		t.Errorf("counter = %v ok=%v, want 42", v, ok)
	}
	if v, ok := p.Value("test_requests_total", "endpoint", "recommend"); !ok || v != 7 {
		t.Errorf("counter2 = %v ok=%v, want 7", v, ok)
	}
	if v, ok := p.Value("test_depth"); !ok || v != 3.5 {
		t.Errorf("gauge = %v ok=%v, want 3.5", v, ok)
	}
	if v, ok := p.Value("test_hits_total", "layer", "search"); !ok || v != 99 {
		t.Errorf("counterFn = %v ok=%v, want 99", v, ok)
	}
	snap, err := p.HistogramSnapshot("test_latency_seconds", "endpoint", "search")
	if err != nil {
		t.Fatalf("HistogramSnapshot: %v", err)
	}
	want := h.Snapshot()
	if snap.Total != want.Total || snap.Counts != want.Counts {
		t.Errorf("round-trip snapshot differs: total %d vs %d", snap.Total, want.Total)
	}
	// Quantiles agree exactly: same buckets, same conservative rule
	// (within one bucket — the live Hist clamps to observed max).
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, wantQ := snap.Quantile(q), want.Quantile(q)
		if got < wantQ || float64(got) > float64(wantQ)*1.126 {
			t.Errorf("q%v: reconstructed %v vs live %v", q, got, wantQ)
		}
	}
}

func TestRegistryHelpTypeAndOrdering(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("b_total", "Second registered.")
	r.NewGaugeFunc("a_gauge", "First alphabetically, second rendered.", func() float64 { return 1 })
	out := string(r.AppendText(nil))
	// Registration order, not alphabetical.
	if strings.Index(out, "b_total") > strings.Index(out, "a_gauge") {
		t.Errorf("families not in registration order:\n%s", out)
	}
	if !strings.Contains(out, "# HELP b_total Second registered.\n# TYPE b_total counter\n") {
		t.Errorf("missing HELP/TYPE block:\n%s", out)
	}
	names := r.SortedFamilyNames()
	if len(names) != 2 || names[0] != "a_gauge" || names[1] != "b_total" {
		t.Errorf("SortedFamilyNames = %v", names)
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	for _, c := range []struct{ name, value, want string }{
		{"quote backslash newline", `a"b\c` + "\nd", `a"b\c` + "\nd"},
		{"control byte", "a\x01b", "a\x01b"},
		// Invalid UTF-8 renders as U+FFFD, whether or not anything beside
		// it needs escaping.
		{"invalid UTF-8", "\xff", "\uFFFD"},
		{"invalid UTF-8 and a quote", "\xff\"", "\uFFFD\""},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewRegistry()
			r.NewGaugeFunc("esc_gauge", `Help with \ backslash`+"\nand newline",
				func() float64 { return 1 },
				"path", c.value)
			out := r.AppendText(nil)
			p, err := ParseText(out)
			if err != nil {
				t.Fatalf("escaped render did not parse: %v\n%s", err, out)
			}
			f := p.Family("esc_gauge")
			if f == nil || len(f.Samples) != 1 {
				t.Fatalf("family missing: %v", f)
			}
			if got := f.Samples[0].Label("path"); got != c.want {
				t.Errorf("label round-trip = %q, want %q", got, c.want)
			}
			if f.Help != `Help with \ backslash`+"\nand newline" {
				t.Errorf("help round-trip = %q", f.Help)
			}
			// The JSON view names the series by the same label value.
			var m map[string]float64
			if err := json.Unmarshal(r.AppendJSON(nil), &m); err != nil {
				t.Fatalf("JSON view: %v", err)
			}
			if key := `esc_gauge{path="` + escapeLabelValue(c.want) + `"}`; len(m) != 1 || m[key] != 1 {
				t.Errorf("JSON view = %v, want only %q", m, key)
			}
		})
	}
}

// TestRegistryJSONView pins the JSON renderer: valid JSON while gauges
// read NaN or ±Inf (rendered as null), counters and finite gauges as
// numbers, and a histogram as its count, sum, p50 and p99 in seconds.
func TestRegistryJSONView(t *testing.T) {
	r := NewRegistry()
	for _, g := range []struct {
		label string
		v     float64
	}{{"nan", math.NaN()}, {"pinf", inf}, {"ninf", math.Inf(-1)}, {"finite", 2.5}} {
		v := g.v
		r.NewGaugeFunc("j_gauge", "Gauge.", func() float64 { return v }, "v", g.label)
	}
	r.NewCounter("j_total", "Counter.").Add(3)
	r.NewHistogram("j_seconds", "Latency.").Record(3 * time.Millisecond)
	out := r.AppendJSON(nil)
	if !json.Valid(out) {
		t.Fatalf("invalid JSON: %s", out)
	}
	var m map[string]any
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	for _, l := range []string{"nan", "pinf", "ninf"} {
		if v, ok := m[`j_gauge{v="`+l+`"}`]; !ok || v != nil {
			t.Errorf("gauge %s = %v (present %v), want null", l, v, ok)
		}
	}
	if v := m[`j_gauge{v="finite"}`]; v != 2.5 {
		t.Errorf("finite gauge = %v, want 2.5", v)
	}
	if v := m["j_total"]; v != 3.0 {
		t.Errorf("counter = %v, want 3", v)
	}
	h, _ := m["j_seconds"].(map[string]any)
	want := map[string]any{"count": 1.0, "sum": 0.003, "p50": 0.003, "p99": 0.003}
	if len(h) != len(want) {
		t.Fatalf("histogram = %v, want %v", h, want)
	}
	for k, v := range want {
		if h[k] != v {
			t.Errorf("histogram %s = %v, want %v", k, h[k], v)
		}
	}
	if len(m) != 6 {
		t.Errorf("%d members, want 6: %s", len(m), out)
	}
}

func TestRegistryInvalidRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"bad metric name", func(r *Registry) { r.NewCounter("9bad", "h") }},
		{"bad label name", func(r *Registry) { r.NewCounter("ok_total", "h", "9bad", "v") }},
		{"le label", func(r *Registry) { r.NewHistogram("ok_seconds", "h", "le", "0.1") }},
		{"odd labels", func(r *Registry) { r.NewCounter("ok_total", "h", "dangling") }},
		{"kind conflict", func(r *Registry) {
			r.NewCounter("twice", "h")
			r.NewHistogram("twice", "h")
		}},
		{"duplicate series", func(r *Registry) {
			r.NewCounter("dup_total", "h", "a", "b")
			r.NewCounter("dup_total", "h", "a", "b")
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.fn(NewRegistry())
		})
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("handler_total", "h").Inc()
	w := httptest.NewRecorder()
	r.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if ct := w.Header().Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	if _, err := ParseText(w.Body.Bytes()); err != nil {
		t.Errorf("handler output did not parse: %v", err)
	}
	if !strings.Contains(w.Body.String(), "handler_total 1\n") {
		t.Errorf("missing sample:\n%s", w.Body.String())
	}
}

// TestScrapeMonotonicityUnderHammer scrapes repeatedly while writers
// hammer a counter and a histogram, asserting every scrape parses
// strictly and counters / cumulative buckets never move backwards. Run
// under -race this also proves the lock-free recording is sound.
func TestScrapeMonotonicityUnderHammer(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("hammer_total", "h")
	h := r.NewHistogram("hammer_seconds", "h")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			d := time.Duration(seed+1) * 37 * time.Microsecond
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Record(d)
				d += 13 * time.Microsecond
				if d > 5*time.Millisecond {
					d = time.Microsecond
				}
			}
		}(w)
	}

	var (
		lastCounter float64
		lastCount   uint64
		lastBuckets HistSnapshot
	)
	for i := 0; i < 50; i++ {
		out := r.AppendText(nil)
		p, err := ParseText(out)
		if err != nil {
			t.Fatalf("scrape %d did not parse: %v\n%s", i, err, out)
		}
		v, ok := p.Value("hammer_total")
		if !ok || v < lastCounter {
			t.Fatalf("scrape %d: counter %v regressed from %v", i, v, lastCounter)
		}
		lastCounter = v
		snap, err := p.HistogramSnapshot("hammer_seconds")
		if err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if snap.Count() < lastCount {
			t.Fatalf("scrape %d: hist count %d regressed from %d", i, snap.Count(), lastCount)
		}
		for b := range snap.Counts {
			if snap.Counts[b] < lastBuckets.Counts[b] {
				t.Fatalf("scrape %d: bucket %d regressed %d -> %d",
					i, b, lastBuckets.Counts[b], snap.Counts[b])
			}
		}
		lastCount, lastBuckets = snap.Count(), snap
	}
	close(stop)
	wg.Wait()
}

// TestProcessCollectorsConcurrentRenders renders a registry holding the
// process collectors from several goroutines for longer than their
// 100ms refresh period. Under -race it pins that a render reads the
// collectors' shared cache under its lock, never while another refreshes.
func TestProcessCollectorsConcurrentRenders(t *testing.T) {
	r := NewRegistry()
	RegisterProcess(r, "t_")
	deadline := time.Now().Add(250 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if !json.Valid(r.AppendJSON(nil)) {
					t.Error("process collectors render invalid JSON")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRecordZeroAllocs pins the request-path recording cost: Counter.Inc
// and Hist.Record must not allocate (the CI alloc-guard step runs this).
func TestRecordZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("alloc_total", "h", "endpoint", "search")
	h := r.NewHistogram("alloc_seconds", "h", "endpoint", "search")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Record(123 * time.Microsecond)
	}); n != 0 {
		t.Errorf("metric recording allocates %v per op, want 0", n)
	}
}

func TestAppendFloatSpecials(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want string
	}{{inf, "+Inf"}, {math.Inf(-1), "-Inf"}, {1.5, "1.5"}, {0, "0"}} {
		if got := string(appendFloat(nil, c.v)); got != c.want {
			t.Errorf("appendFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	if got := string(appendFloat(nil, math.NaN())); got != "NaN" {
		t.Errorf("appendFloat(NaN) = %q", got)
	}
}
