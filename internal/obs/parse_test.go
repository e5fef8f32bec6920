package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

func mustParse(t *testing.T, s string) *Parsed {
	t.Helper()
	p, err := ParseText([]byte(s))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	return p
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"no TYPE", "# HELP x h\nx 1\n", "no preceding TYPE"},
		{"no HELP", "# TYPE x counter\nx 1\n", "no preceding HELP"},
		{"unknown type", "# HELP x h\n# TYPE x widget\nx 1\n", "unknown TYPE"},
		{"duplicate HELP", "# HELP x h\n# HELP x h\n# TYPE x counter\nx 1\n", "duplicate HELP"},
		{"duplicate TYPE", "# HELP x h\n# TYPE x counter\n# TYPE x gauge\nx 1\n", "duplicate TYPE"},
		{"duplicate series", "# HELP x h\n# TYPE x counter\nx 1\nx 2\n", "duplicate series"},
		{"negative counter", "# HELP x h\n# TYPE x counter\nx -1\n", "negative"},
		{"interleaved families", "# HELP a h\n# TYPE a counter\n# HELP b h\n# TYPE b counter\na 1\nb 1\na{k=\"v\"} 2\n", "interleaved"},
		{"timestamped", "# HELP x h\n# TYPE x counter\nx 1 123456\n", "timestamped"},
		{"bad value", "# HELP x h\n# TYPE x counter\nx one\n", "bad value"},
		{"unterminated labels", "# HELP x h\n# TYPE x counter\nx{k=\"v\" 1\n", "unterminated"},
		{"bad escape", "# HELP x h\n# TYPE x counter\nx{k=\"a\\t\"} 1\n", "bad escape"},
		{"invalid UTF-8 label", "# HELP x h\n# TYPE x counter\nx{k=\"\xff\"} 1\n", "not valid UTF-8"},
		{"bucket without le", "# HELP x h\n# TYPE x histogram\nx_bucket 1\nx_bucket{le=\"+Inf\"} 1\nx_sum 1\nx_count 1\n", "without le"},
		{"le not increasing", "# HELP x h\n# TYPE x histogram\nx_bucket{le=\"0.2\"} 1\nx_bucket{le=\"0.1\"} 2\nx_bucket{le=\"+Inf\"} 2\nx_sum 1\nx_count 2\n", "not strictly increasing"},
		{"cumulative regression", "# HELP x h\n# TYPE x histogram\nx_bucket{le=\"0.1\"} 5\nx_bucket{le=\"0.2\"} 3\nx_bucket{le=\"+Inf\"} 5\nx_sum 1\nx_count 5\n", "regressed"},
		{"missing +Inf", "# HELP x h\n# TYPE x histogram\nx_bucket{le=\"0.1\"} 1\nx_sum 1\nx_count 1\n", "+Inf"},
		{"+Inf != count", "# HELP x h\n# TYPE x histogram\nx_bucket{le=\"+Inf\"} 3\nx_sum 1\nx_count 4\n", "!= count"},
		{"stray histogram sample", "# HELP x h\n# TYPE x histogram\nx_bucket{le=\"+Inf\"} 1\nx_sum 1\nx_count 1\nx_extra 1\n", "no preceding TYPE"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseText([]byte(c.in))
			if err == nil {
				t.Fatalf("accepted invalid input:\n%s", c.in)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestParseAccepts(t *testing.T) {
	p := mustParse(t, `# plain comment line
# HELP a_total Requests.
# TYPE a_total counter
a_total{endpoint="search",class="2xx"} 10
a_total{endpoint="search",class="5xx"} 0

# HELP g Current value.
# TYPE g gauge
g -1.5
# HELP h Latency.
# TYPE h histogram
h_bucket{le="0.001"} 2
h_bucket{le="0.01"} 5
h_bucket{le="+Inf"} 6
h_sum 0.123
h_count 6
`)
	if v, ok := p.Value("a_total", "endpoint", "search", "class", "2xx"); !ok || v != 10 {
		t.Errorf("a_total 2xx = %v ok=%v", v, ok)
	}
	if v, ok := p.Value("g"); !ok || v != -1.5 {
		t.Errorf("g = %v ok=%v", v, ok)
	}
	f := p.Family("h")
	if f == nil || f.Type != "histogram" || len(f.Samples) != 5 {
		t.Fatalf("h family = %+v", f)
	}
	if _, ok := p.Value("missing"); ok {
		t.Error("lookup of absent family succeeded")
	}
}

func TestHistogramSnapshotRejectsForeignBounds(t *testing.T) {
	// le=0.000123 (123µs) is not a bound of the shared layout; the
	// cross-check must notice layout drift instead of mis-binning.
	in := `# HELP h x
# TYPE h histogram
h_bucket{le="0.000123"} 1
h_bucket{le="+Inf"} 1
h_sum 0.000123
h_count 1
`
	p := mustParse(t, in)
	if _, err := p.HistogramSnapshot("h"); err == nil || !strings.Contains(err.Error(), "not a bucket bound") {
		t.Errorf("foreign bound accepted: %v", err)
	}
}

func TestHistogramSnapshotMissingFamily(t *testing.T) {
	p := mustParse(t, "# HELP x h\n# TYPE x counter\nx 1\n")
	if _, err := p.HistogramSnapshot("absent"); err == nil {
		t.Error("absent family accepted")
	}
	if _, err := p.HistogramSnapshot("x"); err == nil || !strings.Contains(err.Error(), "want histogram") {
		t.Errorf("counter-as-histogram accepted: %v", err)
	}
}

// FuzzParseText checks the exposition boundary three ways: ParseText
// never panics on raw bytes; a registry whose counter, gauge and histogram
// carry a fuzzed label value and gauge reading renders text that parses
// back to the same labels and values (invalid UTF-8 in the label reads
// back as U+FFFD, and NaN stays NaN); and its JSON view is valid JSON
// holding the same three series.
func FuzzParseText(f *testing.F) {
	f.Add([]byte("# HELP x h\n# TYPE x counter\nx{k=\"v\"} 1\n"), "search", 1.5)
	f.Fuzz(func(t *testing.T, raw []byte, label string, reading float64) {
		_, _ = ParseText(raw)

		r := NewRegistry()
		r.NewCounter("fz_total", "Counter.", "v", label).Add(7)
		r.NewGaugeFunc("fz_gauge", "Gauge.", func() float64 { return reading }, "v", label)
		r.NewHistogram("fz_seconds", "Histogram.", "v", label).Record(1500 * time.Microsecond)
		want := strings.ToValidUTF8(label, "\uFFFD")

		text := r.AppendText(nil)
		p, err := ParseText(text)
		if err != nil {
			t.Fatalf("render does not parse: %v\n%s", err, text)
		}
		if v, ok := p.Value("fz_total", "v", want); !ok || v != 7 {
			t.Fatalf("counter = %v (found %v), want 7\n%s", v, ok, text)
		}
		if v, ok := p.Value("fz_gauge", "v", want); !ok || (v != reading && !(math.IsNaN(v) && math.IsNaN(reading))) {
			t.Fatalf("gauge = %v (found %v), want %v\n%s", v, ok, reading, text)
		}
		if snap, err := p.HistogramSnapshot("fz_seconds", "v", want); err != nil || snap.Total != 1 || snap.SumUS != 1500 {
			t.Fatalf("histogram = %+v, %v\n%s", snap, err, text)
		}

		js := r.AppendJSON(nil)
		var m map[string]any
		if !utf8.Valid(js) || json.Unmarshal(js, &m) != nil {
			t.Fatalf("JSON view is not valid JSON: %q", js)
		}
		labels := `{v="` + escapeLabelValue(want) + `"}`
		if len(m) != 3 || m["fz_total"+labels] != 7.0 {
			t.Fatalf("JSON view %v lacks fz_total%s = 7", m, labels)
		}
		g, ok := m["fz_gauge"+labels]
		if finite := !math.IsNaN(reading) && !math.IsInf(reading, 0); !ok || (finite && g != reading) || (!finite && g != nil) {
			t.Fatalf("JSON gauge = %v (found %v), want %v", g, ok, reading)
		}
		if h, _ := m["fz_seconds"+labels].(map[string]any); h["count"] != 1.0 || h["sum"] != 0.0015 {
			t.Fatalf("JSON histogram = %v", h)
		}
	})
}
