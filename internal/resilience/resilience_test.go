package resilience

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// --- Gate ---------------------------------------------------------------

func TestGateAdmitsUpToCapacity(t *testing.T) {
	g := NewGateCfg(GateConfig{Capacity: 2, QueueDepth: 0})
	ctx := context.Background()
	if err := g.AcquirePri(ctx, PriorityNormal); err != nil {
		t.Fatal(err)
	}
	if err := g.AcquirePri(ctx, PriorityNormal); err != nil {
		t.Fatal(err)
	}
	if err := g.AcquirePri(ctx, PriorityNormal); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third acquire with no queue: err=%v, want ErrSaturated", err)
	}
	st := g.Stats()
	if st.InFlight != 2 || st.Shed != 1 || st.Admitted != 2 {
		t.Fatalf("stats %+v", st)
	}
	if !g.Saturated() {
		t.Fatal("full gate with empty queue should report saturated")
	}
	g.Release()
	if g.Saturated() {
		t.Fatal("gate with a free slot reports saturated")
	}
	if err := g.AcquirePri(ctx, PriorityNormal); err != nil {
		t.Fatal(err)
	}
	g.Release()
	g.Release()
	if st := g.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight after releases: %+v", st)
	}
}

func TestGateQueuedAcquireGetsFreedSlot(t *testing.T) {
	g := NewGateCfg(GateConfig{Capacity: 1, QueueDepth: 1})
	if err := g.AcquirePri(context.Background(), PriorityNormal); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- g.AcquirePri(context.Background(), PriorityNormal) }()
	// Wait until the second acquire is actually queued.
	for i := 0; i < 1000 && g.Stats().Waiting == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if g.Stats().Waiting != 1 {
		t.Fatal("second acquire never queued")
	}
	g.Release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("queued acquire: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued acquire never admitted after release")
	}
	g.Release()
}

func TestGateQueueOverflowSheds(t *testing.T) {
	g := NewGateCfg(GateConfig{Capacity: 1, QueueDepth: 1})
	if err := g.AcquirePri(context.Background(), PriorityNormal); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- g.AcquirePri(context.Background(), PriorityNormal) }()
	for i := 0; i < 1000 && g.Stats().Waiting == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	// Slot held, queue position held: the next caller is shed immediately.
	if err := g.AcquirePri(context.Background(), PriorityNormal); !errors.Is(err, ErrSaturated) {
		t.Fatalf("overflow acquire: err=%v, want ErrSaturated", err)
	}
	g.Release()
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	g.Release()
}

func TestGateAcquireHonorsContextWhileQueued(t *testing.T) {
	g := NewGateCfg(GateConfig{Capacity: 1, QueueDepth: 4})
	if err := g.AcquirePri(context.Background(), PriorityNormal); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.AcquirePri(ctx, PriorityNormal); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire past deadline: err=%v", err)
	}
	if st := g.Stats(); st.Waiting != 0 || st.Shed != 1 {
		t.Fatalf("queue token not returned after deadline: %+v", st)
	}
	g.Release()
}

func TestGateConcurrentHammer(t *testing.T) {
	g := NewGateCfg(GateConfig{Capacity: 4, QueueDepth: 4})
	var wg sync.WaitGroup
	var admitted, shed sync.Map
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			if err := g.AcquirePri(ctx, PriorityNormal); err != nil {
				shed.Store(i, true)
				return
			}
			admitted.Store(i, true)
			if got := g.Stats().InFlight; got > 4 {
				t.Errorf("in-flight %d exceeds capacity", got)
			}
			time.Sleep(time.Millisecond)
			g.Release()
		}(i)
	}
	wg.Wait()
	if st := g.Stats(); st.InFlight != 0 || st.Waiting != 0 {
		t.Fatalf("gate not drained: %+v", st)
	}
}

func TestNilGateAdmitsEverything(t *testing.T) {
	var g *Gate
	if err := g.AcquirePri(context.Background(), PriorityNormal); err != nil {
		t.Fatal(err)
	}
	g.Release()
	if g.Saturated() {
		t.Fatal("nil gate saturated")
	}
	if st := g.Stats(); st != (GateStats{}) {
		t.Fatalf("nil gate stats %+v", st)
	}
}

// --- Breaker ------------------------------------------------------------

func TestBreakerOpensAfterThresholdAndCoolsDown(t *testing.T) {
	b := NewBreaker(3, time.Minute)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker denied attempt %d", i)
		}
		if opened := b.Failure(); opened != (i == 2) {
			t.Fatalf("failure %d reported opened=%v", i, opened)
		}
	}
	if b.Allow() {
		t.Fatal("breaker still allowing after threshold failures")
	}
	if st := b.Stats(); st.State != "open" || st.Opens != 1 || st.Denied != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Cooldown elapses: half-open lets a probe through.
	now = now.Add(2 * time.Minute)
	if st := b.Stats(); st.State != "half-open" {
		t.Fatalf("state after cooldown: %+v", st)
	}
	if !b.Allow() {
		t.Fatal("half-open breaker denied the probe")
	}
	// Probe fails: the cooldown window restarts, and the breaker, already
	// open, does not report opening again.
	if b.Failure() {
		t.Fatal("failed probe reported opening the breaker")
	}
	if b.Allow() {
		t.Fatal("breaker allowed immediately after failed probe")
	}
	// Probe succeeds after the next cooldown: breaker closes fully.
	now = now.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("breaker denied probe after second cooldown")
	}
	b.Success()
	if st := b.Stats(); st.State != "closed" || st.ConsecutiveFailures != 0 {
		t.Fatalf("stats after success: %+v", st)
	}
	if !b.Allow() {
		t.Fatal("closed breaker denied")
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b := NewBreaker(2, time.Minute)
	b.Failure()
	b.Success()
	b.Failure()
	if !b.Allow() {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
}

func TestNilBreakerAlwaysAllows(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker denied")
	}
	b.Success()
	if b.Failure() {
		t.Fatal("nil breaker opened")
	}
	if st := b.Stats(); st.State != "closed" {
		t.Fatalf("nil breaker stats %+v", st)
	}
}

// --- Backoff ------------------------------------------------------------

func TestBackoffGrowsAndCaps(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, 80*time.Millisecond, 1)
	prevCeil := time.Duration(0)
	for i := 0; i < 10; i++ {
		d := b.Next()
		ceil := 10 * time.Millisecond << uint(i)
		if ceil > 80*time.Millisecond || ceil <= 0 {
			ceil = 80 * time.Millisecond
		}
		if d < ceil/2 || d > ceil {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", i, d, ceil/2, ceil)
		}
		if ceil < prevCeil {
			t.Fatalf("ceiling shrank: %v after %v", ceil, prevCeil)
		}
		prevCeil = ceil
	}
	if b.Attempt() != 10 {
		t.Fatalf("attempt count %d", b.Attempt())
	}
	b.Reset()
	if b.Attempt() != 0 {
		t.Fatal("reset did not rewind")
	}
	if d := b.Next(); d > 10*time.Millisecond {
		t.Fatalf("first delay after reset %v exceeds base", d)
	}
}

func TestBackoffManyAttemptsNoOverflow(t *testing.T) {
	b := NewBackoff(time.Millisecond, time.Second, 42)
	for i := 0; i < 200; i++ {
		d := b.Next()
		if d <= 0 || d > time.Second {
			t.Fatalf("attempt %d: delay %v out of range", i, d)
		}
	}
}

// --- Recover middleware -------------------------------------------------

func TestRecoverConvertsPanicTo500(t *testing.T) {
	var panics int
	h := Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			panic("kaboom")
		}
		w.WriteHeader(http.StatusOK)
	}), func(v any) { panics++ })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic status %d", rec.Code)
	}
	if panics != 1 {
		t.Fatalf("panic callback fired %d times", panics)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ok", nil))
	if rec.Code != http.StatusOK || panics != 1 {
		t.Fatalf("healthy request after panic: status %d, panics %d", rec.Code, panics)
	}
}

func TestRecoverRepanicsAbortHandler(t *testing.T) {
	h := Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}), func(v any) { t.Error("onPanic fired for ErrAbortHandler") })
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("ErrAbortHandler swallowed")
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
}

// --- Budget -------------------------------------------------------------

func TestBudget(t *testing.T) {
	if !Budget(context.Background(), time.Hour) {
		t.Fatal("no-deadline context should always have budget")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if !Budget(ctx, time.Minute) {
		t.Fatal("hour-long deadline lacks a minute of budget")
	}
	if Budget(ctx, 2*time.Hour) {
		t.Fatal("hour-long deadline claims two hours of budget")
	}
	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if Budget(canceled, 0) {
		t.Fatal("canceled context has budget")
	}
}
