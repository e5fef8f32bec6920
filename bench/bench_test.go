package main

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"alicoco"
)

// syntheticCorpus has the shape of the built net's corpus without a build.
func syntheticCorpus() *corpus {
	c := &corpus{}
	for i := 0; i < 150; i++ {
		c.concepts = append(c.concepts, "concept "+strconv.Itoa(i))
	}
	for i := 0; i < clickSessions; i++ {
		c.sessions = append(c.sessions, []int{i, i + 1, i + 2}[:2+i%2])
	}
	for i := 0; i < 1188; i++ {
		c.items = append(c.items, i)
	}
	return c
}

func TestOpStreamDeterministic(t *testing.T) {
	c := syntheticCorpus()
	for _, w := range workloadNames {
		a, _ := newGenerator(w, 7, c)
		b, _ := newGenerator(w, 7, c)
		other, _ := newGenerator(w, 8, c)
		differs := false
		for i := uint64(0); i < 2000; i++ {
			if !reflect.DeepEqual(a.op(i), b.op(i)) {
				t.Fatalf("%s: op %d differs between two generators with one seed", w, i)
			}
			if !reflect.DeepEqual(a.op(i), other.op(i)) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same 2000 ops", w)
		}
	}
}

// testConfig serves the reference from the test process: it only has to
// answer here, not to measure the host.
func testConfig(t *testing.T, workload string) config {
	ref := httptest.NewUnstartedServer(nil)
	ref.Config.Handler = refHandler("http://"+ref.Listener.Addr().String(), 1)
	ref.Start()
	t.Cleanup(ref.Close)
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.window = 300 * time.Millisecond
	cfg.warmup = time.Second
	cfg.tmpDir = t.TempDir()
	cfg.outDir = t.TempDir()
	cfg.refAddr = ref.Listener.Addr().String()
	cfg.setups = 1
	cfg.idlePublishes = 2
	cfg.idleRef = 10 * time.Millisecond
	cfg.pass = passSizes{warmOps: 256, maxOps: 500, maxDur: 200 * time.Millisecond}
	return cfg
}

// TestWorkloads runs every workload with a 300 ms window and checks what
// each is built to show: every metric is emitted, nothing fails, the
// answers match their pinned digest, cold misses every cache layer and
// hot hits the encoded-bytes caches.
func TestWorkloads(t *testing.T) {
	bm := readBenchmarkJSON(t)
	pins := readPins(t)
	for _, w := range workloadNames {
		rec, err := runWorkload(testConfig(t, w), time.Now())
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		res := result(rec)
		if !res.Correct || res.Failed != 0 || rec.Values["error_ratio"] != 0 {
			t.Errorf("%s: correct %v, failed %d of %d, error_ratio %v",
				w, res.Correct, res.Failed, res.Attempted, rec.Values["error_ratio"])
		}
		for _, m := range bm.EndToEnd {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s not emitted", w, m.Name)
			}
		}
		if want := pins[w+" 1"]; rec.AnswersDigest != want {
			t.Errorf("%s: answers digest %s, pinned %s", w, rec.AnswersDigest, want)
		}
		layers := []string{"search_bytes", "recommend_bytes", "search", "recommend"}
		switch w {
		case "cold":
			for _, l := range layers {
				name := "qcache." + l + ".hit_ratio"
				if v, ok := rec.Values[name]; !ok || v >= 0.01 {
					t.Errorf("cold: %s = %v (present %v), want below 1%%", name, v, ok)
				}
			}
		case "hot":
			for _, l := range layers[:2] {
				name := "qcache." + l + ".hit_ratio"
				if v := rec.Values[name]; v <= 0.99 {
					t.Errorf("hot: %s = %v after warm-up, want above 99%%", name, v)
				}
			}
		}
	}
}

func TestHotKeysFitCache(t *testing.T) {
	built, err := alicoco.Build(alicoco.Default())
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpusFrom(built)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := newGenerator("hot", 1, c)
	keys := map[string]bool{}
	for i := uint64(0); i < 100000; i++ {
		keys[g.op(i).path] = true
	}
	if len(keys) > alicoco.DefaultQueryCacheCapacity {
		t.Errorf("hot has %d distinct keys, more than the %d-entry cache", len(keys), alicoco.DefaultQueryCacheCapacity)
	}
}

func TestTracedRun(t *testing.T) {
	cfg := testConfig(t, "hot")
	cfg.trace = true
	cfg.setups = 2
	rec, err := runWorkload(cfg, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Setup) != cfg.setups {
		t.Errorf("%d set-ups timed, want %d", len(rec.Setup), cfg.setups)
	}
	res := result(rec)
	for _, m := range readBenchmarkJSON(t).PerLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("per-layer metric %s not emitted", m.Name)
		}
	}
	b, err := os.ReadFile(rec.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Passes map[string]struct {
			Total int               `json:"total"`
			Spans []json.RawMessage `json:"spans"`
		} `json:"passes"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	for _, p := range []string{"closed_loop", "http", "handler", "facade", "engine"} {
		if len(tf.Passes[p].Spans) == 0 {
			t.Errorf("trace file: pass %s has no spans", p)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric tables
// in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bm := readBenchmarkJSON(t)
	check := func(kind string, listed []benchMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code has %d", kind, len(listed), len(defs))
		}
		for i := 0; i < len(listed) && i < len(defs); i++ {
			l, d := listed[i], defs[i]
			if l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, l, d)
			}
		}
	}
	check("end_to_end", bm.EndToEnd, endToEnd)
	check("per_layer", bm.PerLayer, perLayer)
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 100000; i++ {
		h.record(time.Duration(i) * time.Microsecond / 10)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 100000 / 10 // µs
		if got := h.quantileUS(q); got < want*0.995 || got > want*1.005 {
			t.Errorf("q%v = %v µs, want %v ± 0.5%%", q, got, want)
		}
	}
}

func TestReferenceScaling(t *testing.T) {
	if got := scaleFor(refRPS / 2); got != 2 {
		t.Errorf("scaleFor(half the reference) = %v, want 2", got)
	}
	if got := scaleFor(0); got != 1 {
		t.Errorf("scaleFor(unmeasured) = %v, want 1", got)
	}
	t0 := time.Now()
	slots := []slot{{t0, 1.5}, {t0.Add(sliceLen), 0.5}}
	for _, c := range []struct {
		at    time.Duration
		scale float64
		in    bool
	}{
		{-time.Millisecond, 0, false},
		{0, 1.5, true},
		{sliceLen + time.Millisecond, 0.5, true},
		{2 * sliceLen, 0, false},
	} {
		if scale, in := scaleAt(slots, t0.Add(c.at)); scale != c.scale || in != c.in {
			t.Errorf("scaleAt(%v) = %v, %v; want %v, %v", c.at, scale, in, c.scale, c.in)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

type benchMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bm
}

// readPins maps "<workload> <seed>" to the pinned answers digest.
func readPins(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/answers.sha256")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 3 {
			pins[fields[1]+" "+fields[2]] = fields[0]
		}
	}
	return pins
}
