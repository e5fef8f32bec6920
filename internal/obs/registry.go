// A dependency-free Prometheus text-format (version 0.0.4) metric
// registry. Metrics are registered once at startup with fixed label
// sets — label values never derive from request data, which is the
// whole cardinality budget — and rendered into a pooled buffer at
// scrape time. Counters and histograms on the request path are pure
// atomics; gauges and scrape-time counters are callback-backed so their
// cost is paid only when a scraper asks.
package obs

import (
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

var inf = math.Inf(1)

// Counter is a monotone counter; Inc/Add are single atomic adds.
type Counter struct{ c atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.c.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.c.Load() }

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one label-set instance of a family. Exactly one of the value
// sources is set, matching the family's kind.
type series struct {
	labels    string // pre-rendered `a="b",c="d"` (no braces), "" for none
	counter   *Counter
	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Hist
}

type family struct {
	name, help string
	kind       metricKind
	series     []*series
	labelSets  map[string]bool // duplicate-registration guard
}

// Registry holds metric families and renders them in registration order.
// Registration is expected at startup; it is mutex-guarded anyway so a
// late registration cannot race a scrape.
type Registry struct {
	mu   sync.RWMutex
	fams []*family
	byNm map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byNm: make(map[string]*family)}
}

// NewCounter registers and returns a request-path counter. Labels are
// alternating key, value pairs fixed for the series' lifetime. Invalid
// names, kind conflicts, and duplicate label sets panic: registration
// runs at startup and a bad registration is a programming error.
func (r *Registry) NewCounter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, &series{counter: c}, labels)
	return c
}

// NewCounterFunc registers a counter whose value is read at scrape time —
// for monotone counts that already live elsewhere (cache hit totals, gate
// admission counts) and must not be double-tracked.
func (r *Registry) NewCounterFunc(name, help string, fn func() uint64, labels ...string) {
	r.register(name, help, kindCounter, &series{counterFn: fn}, labels)
}

// NewGaugeFunc registers a gauge sampled at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGauge, &series{gaugeFn: fn}, labels)
}

// NewHistogram registers and returns a request-path latency histogram;
// Record on the returned Hist is two atomic adds. The exposition renders
// cumulative `le` buckets in seconds — only the non-empty buckets plus
// the mandatory +Inf, so payload size tracks the spread of observed
// latencies (tens of buckets in practice) rather than the 512-slot
// layout.
func (r *Registry) NewHistogram(name, help string, labels ...string) *Hist {
	h := &Hist{}
	r.register(name, help, kindHistogram, &series{hist: h}, labels)
	return h
}

func (r *Registry) register(name, help string, kind metricKind, s *series, labels []string) {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	if len(labels)%2 != 0 {
		panic("obs: odd label list for " + name)
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if !validLabelName(labels[i]) || labels[i] == "le" {
			panic("obs: invalid label name " + strconv.Quote(labels[i]) + " on " + name)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[i+1]))
		b.WriteByte('"')
	}
	s.labels = b.String()

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byNm[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, labelSets: make(map[string]bool)}
		r.fams = append(r.fams, f)
		r.byNm[name] = f
	}
	if f.kind != kind {
		panic("obs: metric " + name + " re-registered as a different type")
	}
	if f.labelSets[s.labels] {
		panic("obs: duplicate series " + name + "{" + s.labels + "}")
	}
	f.labelSets[s.labels] = true
	f.series = append(f.series, s)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// escapeLabelValue applies the exposition format's label escapes. Each
// run of invalid UTF-8 becomes U+FFFD first, so the text view, ParseText
// and the JSON view all carry the same valid UTF-8 value.
func escapeLabelValue(v string) string {
	v = strings.ToValidUTF8(v, "\uFFFD")
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP line's free text.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// AppendText renders the registry in exposition format, appending to buf.
// Families render in registration order, series in registration order
// within a family, so successive scrapes diff cleanly.
func (r *Registry) AppendText(buf []byte) []byte {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range r.fams {
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, escapeHelp(f.help)...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.kind.String()...)
		buf = append(buf, '\n')
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				buf = appendSample(buf, f.name, s.labels, "")
				buf = strconv.AppendUint(buf, s.count(), 10)
				buf = append(buf, '\n')
			case kindGauge:
				buf = appendSample(buf, f.name, s.labels, "")
				buf = appendFloat(buf, s.gaugeFn())
				buf = append(buf, '\n')
			case kindHistogram:
				buf = appendHist(buf, f.name, s.labels, s.hist)
			}
		}
	}
	return buf
}

// count reads a counter series.
func (s *series) count() uint64 {
	if s.counter != nil {
		return s.counter.Value()
	}
	return s.counterFn()
}

// AppendJSON renders the registry as one JSON object, appending to buf.
// Every series is a member named by its exposition name, `family{labels}`:
// a counter or gauge is its value (a NaN or ±Inf gauge is null), and a
// histogram is {"count", "sum", "p50", "p99"}, all in seconds. Members
// come in AppendText's order, and a value reads exactly as it does there.
func (r *Registry) AppendJSON(buf []byte) []byte {
	r.mu.RLock()
	defer r.mu.RUnlock()
	buf = append(buf, '{')
	start := len(buf)
	for _, f := range r.fams {
		for _, s := range f.series {
			if len(buf) > start {
				buf = append(buf, ',')
			}
			buf = append(buf, '"')
			buf = append(buf, f.name...)
			if s.labels != "" {
				buf = append(buf, '{')
				buf = appendJSONEscaped(buf, s.labels)
				buf = append(buf, '}')
			}
			buf = append(buf, '"', ':')
			switch f.kind {
			case kindCounter:
				buf = strconv.AppendUint(buf, s.count(), 10)
			case kindGauge:
				buf = appendJSONFloat(buf, s.gaugeFn())
			case kindHistogram:
				snap := s.hist.Snapshot()
				buf = append(buf, `{"count":`...)
				buf = strconv.AppendUint(buf, snap.Total, 10)
				buf = append(buf, `,"sum":`...)
				buf = appendJSONFloat(buf, float64(snap.SumUS)/1e6)
				buf = append(buf, `,"p50":`...)
				buf = appendJSONFloat(buf, snap.Quantile(0.5).Seconds())
				buf = append(buf, `,"p99":`...)
				buf = appendJSONFloat(buf, snap.Quantile(0.99).Seconds())
				buf = append(buf, '}')
			}
		}
	}
	return append(buf, '}')
}

// appendJSONEscaped appends s with JSON's string escapes: a quote or a
// backslash takes a backslash, and a control byte becomes \u00XX. s is
// valid UTF-8 (label values are made so at registration).
func appendJSONEscaped(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < 0x20:
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			buf = append(buf, c)
		}
	}
	return buf
}

// appendJSONFloat writes v as AppendText does, or null where JSON has no
// number for it (NaN, ±Inf).
func appendJSONFloat(buf []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(buf, "null"...)
	}
	return appendFloat(buf, v)
}

// appendSample writes `name{labels}` + a space (no value); le, when
// non-empty, is an extra pre-escaped label value for histogram buckets.
func appendSample(buf []byte, name, labels, le string) []byte {
	buf = append(buf, name...)
	if labels != "" || le != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		if le != "" {
			if labels != "" {
				buf = append(buf, ',')
			}
			buf = append(buf, `le="`...)
			buf = append(buf, le...)
			buf = append(buf, '"')
		}
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	return buf
}

func appendFloat(buf []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(buf, "+Inf"...)
	case math.IsInf(v, -1):
		return append(buf, "-Inf"...)
	case math.IsNaN(v):
		return append(buf, "NaN"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// leStrings caches the rendered `le` value of every bucket upper bound
// (computed once; bounds are fixed for the process lifetime).
var leStrings = func() [histBuckets]string {
	var a [histBuckets]string
	for i := range a {
		us := histUpper(i)
		if us == ^uint64(0) {
			a[i] = "+Inf"
			continue
		}
		a[i] = strconv.FormatFloat(float64(us)/1e6, 'g', -1, 64)
	}
	return a
}()

// appendHist renders one histogram series: cumulative non-empty buckets,
// the mandatory +Inf bucket, _sum (seconds), and _count. The counts come
// from one Snapshot, so the rendered series is internally consistent
// (+Inf == _count) no matter how hard Record is hammering concurrently.
func appendHist(buf []byte, name, labels string, h *Hist) []byte {
	snap := h.Snapshot()
	var cum uint64
	bucket := name + "_bucket"
	for i := 0; i < histBuckets; i++ {
		if snap.Counts[i] == 0 {
			continue
		}
		cum += snap.Counts[i]
		if leStrings[i] == "+Inf" {
			// Saturated top buckets fold into the +Inf line below.
			continue
		}
		buf = appendSample(buf, bucket, labels, leStrings[i])
		buf = strconv.AppendUint(buf, cum, 10)
		buf = append(buf, '\n')
	}
	buf = appendSample(buf, bucket, labels, "+Inf")
	buf = strconv.AppendUint(buf, snap.Total, 10)
	buf = append(buf, '\n')
	buf = append(buf, name...)
	buf = append(buf, "_sum"...)
	if labels != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = appendFloat(buf, float64(snap.SumUS)/1e6)
	buf = append(buf, '\n')
	buf = append(buf, name...)
	buf = append(buf, "_count"...)
	if labels != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, snap.Total, 10)
	buf = append(buf, '\n')
	return buf
}

// scrapeBufs pools exposition buffers across scrapes; one scrape's grown
// buffer serves the next.
var scrapeBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// ContentType is the exposition format's content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the registry as a Prometheus scrape target.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		bp := scrapeBufs.Get().(*[]byte)
		buf := r.AppendText((*bp)[:0])
		w.Header().Set("Content-Type", ContentType)
		_, _ = w.Write(buf)
		if cap(buf) <= 1<<20 {
			*bp = buf
			scrapeBufs.Put(bp)
		}
	})
}

// SortedFamilyNames lists registered family names (for tests and docs).
func (r *Registry) SortedFamilyNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.fams))
	for _, f := range r.fams {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}
