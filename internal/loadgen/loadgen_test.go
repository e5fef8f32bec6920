package loadgen

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"alicoco"
	"alicoco/internal/resilience"
)

func testCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := alicoco.Build(alicoco.Small())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CorpusFrom(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestCorpusFromRefusesLoadedFacade: a facade loaded from a store has no
// click log, so CorpusFrom has no sessions to replay and reports an error
// rather than making some up.
func TestCorpusFromRefusesLoadedFacade(t *testing.T) {
	c, err := alicoco.Build(alicoco.Small())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := c.SaveShards(dir, 1); err != nil {
		t.Fatal(err)
	}
	l, err := alicoco.LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp, err := CorpusFrom(l, 64); err == nil {
		t.Fatalf("CorpusFrom on a loaded facade returned %d sessions, want an error", len(cp.Sessions))
	}
}

func TestMixDeterministicAndDistinct(t *testing.T) {
	cp := testCorpus(t)
	for _, name := range MixNames {
		a, err := NewMix(name, cp, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewMix(name, cp, 42)
		recs := 0
		for i := 0; i < 500; i++ {
			oa, ob := a.Next(), b.Next()
			if oa.Recommend != ob.Recommend || oa.Query != ob.Query || len(oa.Session) != len(ob.Session) {
				t.Fatalf("mix %s not deterministic at op %d", name, i)
			}
			if oa.Recommend {
				recs++
				if len(oa.Session) == 0 {
					t.Fatalf("mix %s produced empty session", name)
				}
			} else if oa.Query == "" {
				t.Fatalf("mix %s produced empty query", name)
			}
		}
		if recs == 0 || recs == 500 {
			t.Fatalf("mix %s recommend count %d — want a blend", name, recs)
		}
	}
	if _, err := NewMix("nope", cp, 1); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

func TestAdversarialMixBustsCaches(t *testing.T) {
	cp := testCorpus(t)
	m, err := NewMix("adversarial", cp, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < 2000; i++ {
		op := m.Next()
		if !op.Recommend {
			seen[op.Query]++
		}
	}
	unique := 0
	for q, n := range seen {
		if n == 1 && strings.Contains(q, "zzq") {
			unique++
		}
	}
	if unique < 400 {
		t.Fatalf("adversarial mix produced only %d unique miss queries out of %d distinct", unique, len(seen))
	}
}

func TestSLOChecks(t *testing.T) {
	slo := SLO{Deadline: 50 * time.Millisecond}
	good := &Result{Name: "good"}
	good.Counts.Sent, good.Counts.OK = 100, 90
	good.Counts.Shed = 10
	good.Goodput = 90
	if v := slo.Check(good); len(v) != 0 {
		t.Fatalf("clean result flagged: %v", v)
	}

	bad := &Result{Name: "bad"}
	bad.Counts.Sent = 100
	bad.Counts.OK = 50
	bad.Counts.ServerErr = 3
	bad.Counts.Hang = 1
	bad.Counts.LateOK = 40
	v := slo.Check(bad)
	if len(v) != 3 {
		t.Fatalf("want 3 violations (5xx, hang, late), got %d: %v", len(v), v)
	}

	base := &Result{Name: "base", Goodput: 100}
	collapsed := &Result{Name: "chaos", Goodput: 10}
	if v := slo.CheckGoodput(base, collapsed); len(v) != 1 {
		t.Fatalf("collapsed goodput not flagged: %v", v)
	}
	held := &Result{Name: "chaos", Goodput: 60}
	if v := slo.CheckGoodput(base, held); len(v) != 0 {
		t.Fatalf("held goodput flagged: %v", v)
	}
}

// TestDriverOpenLoopAgainstStub runs the real driver against a stub server
// that sheds every third request, and checks classification, goodput
// accounting, and that arrivals kept pace (open loop).
func TestDriverOpenLoopAgainstStub(t *testing.T) {
	var n atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%3 == 0 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"items":[]}`))
	}))
	defer srv.Close()

	cp := testCorpus(t)
	mix, err := NewMix("uniform", cp, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		BaseURL:  srv.URL,
		Mix:      mix,
		Rate:     400,
		Duration: 500 * time.Millisecond,
		Deadline: 100 * time.Millisecond,
		Retry:    true,
		Budget:   resilience.NewRetryBudget(0, 0),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counts
	if c.Sent < 150 {
		t.Fatalf("open loop sent only %d arrivals at 400/s for 500ms", c.Sent)
	}
	if c.OK == 0 || c.Shed == 0 {
		t.Fatalf("want both OKs and sheds, got %+v", c)
	}
	if c.ServerErr != 0 || c.Hang != 0 {
		t.Fatalf("stub produced errors/hangs: %+v", c)
	}
	if c.Retries == 0 && c.RetryDrops == 0 {
		t.Fatal("retry path never exercised despite sheds")
	}
	if res.Goodput <= 0 {
		t.Fatal("goodput not computed")
	}
	if res.Lat.Count() == 0 || res.ShedLat.Count() == 0 {
		t.Fatal("latency histograms empty")
	}
	if v := (SLO{Deadline: 100 * time.Millisecond}).Check(res); len(v) != 0 {
		t.Fatalf("stub run violated SLOs: %v", v)
	}
}

// TestDriverCountsHangs points the driver at a server that never answers
// and confirms the hang detector fires rather than blocking forever.
func TestDriverCountsHangs(t *testing.T) {
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	defer func() { close(stall); srv.Close() }()

	cp := testCorpus(t)
	mix, _ := NewMix("uniform", cp, 2)
	res, err := Run(Options{
		BaseURL:  srv.URL,
		Mix:      mix,
		Rate:     50,
		Duration: 200 * time.Millisecond,
		Deadline: 100 * time.Millisecond, // hang cap = 1.2s
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Hang == 0 {
		t.Fatalf("stalled server produced no hangs: %+v", res.Counts)
	}
	if res.Counts.OK != 0 {
		t.Fatalf("stalled server produced OKs: %+v", res.Counts)
	}
}

func TestPhaseSeedDistinct(t *testing.T) {
	a, b := PhaseSeed(1, 0), PhaseSeed(1, 1)
	if a == b {
		t.Fatal("phase seeds collide")
	}
	if a != PhaseSeed(1, 0) {
		t.Fatal("phase seed not deterministic")
	}
}
