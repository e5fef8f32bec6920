package resilience

import (
	"context"
	"testing"
	"time"
)

// fakeClock drives a Gate deterministically through the injectable now.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func clockGate(g *Gate, c *fakeClock) *Gate  { g.now = c.now; return g }

// fillSlots occupies every slot so subsequent acquires hit the contended path.
func fillSlots(t *testing.T, g *Gate, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := g.AcquirePri(context.Background(), PriorityNormal); err != nil {
			t.Fatalf("fill acquire %d: %v", i, err)
		}
	}
}

func TestAdaptiveGateEntersDroppingAfterInterval(t *testing.T) {
	clk := newFakeClock()
	g := clockGate(NewGateCfg(GateConfig{Capacity: 1, QueueDepth: 4, Target: 5 * time.Millisecond, Interval: 100 * time.Millisecond, Seed: 1}), clk)
	fillSlots(t, g, 1)

	// Feed sojourns above target: first one starts the grace interval,
	// later ones inside the interval must not flip to dropping yet.
	g.observe(10 * time.Millisecond)
	if g.Stats().Dropping {
		t.Fatal("dropping after a single above-target sojourn")
	}
	clk.advance(50 * time.Millisecond)
	g.observe(10 * time.Millisecond)
	if g.Stats().Dropping {
		t.Fatal("dropping before a full interval above target")
	}
	// Past the interval the next above-target sojourn starts dropping.
	clk.advance(60 * time.Millisecond)
	g.observe(10 * time.Millisecond)
	if !g.Stats().Dropping {
		t.Fatal("not dropping after a full interval above target")
	}

	// While dropping: low priority sheds unconditionally with ErrQueueDelay.
	if err := g.AcquirePri(context.Background(), PriorityLow); err != ErrQueueDelay {
		t.Fatalf("low priority while dropping: got %v, want ErrQueueDelay", err)
	}
	st := g.Stats()
	if st.ShedOverDelay == 0 || st.ShedLow == 0 {
		t.Fatalf("controller sheds not counted: %+v", st)
	}
}

func TestAdaptiveGateControlLawPacesNormalSheds(t *testing.T) {
	clk := newFakeClock()
	g := clockGate(NewGateCfg(GateConfig{Capacity: 1, QueueDepth: 8, Target: time.Millisecond, Interval: 100 * time.Millisecond, Seed: 1}), clk)
	fillSlots(t, g, 1)

	// Enter dropping mode.
	g.observe(5 * time.Millisecond)
	clk.advance(101 * time.Millisecond)
	g.observe(5 * time.Millisecond)
	if !g.Stats().Dropping {
		t.Fatal("not dropping")
	}

	// Immediately after entering dropping, dropNext is one control-law
	// spacing away, so a Normal arrival right now queues rather than sheds.
	if g.controllerSheds(PriorityNormal) {
		t.Fatal("normal shed before first control-law deadline")
	}
	// After the spacing elapses it sheds, and the spacing shrinks.
	clk.advance(101 * time.Millisecond)
	if !g.controllerSheds(PriorityNormal) {
		t.Fatal("normal not shed after control-law deadline")
	}
	first := g.controlLaw() // now dropCount >= 2: interval/sqrt(n)
	if first >= 100*time.Millisecond {
		t.Fatalf("control law did not tighten: %v", first)
	}
}

func TestAdaptiveGateFreeSlotResetsDropping(t *testing.T) {
	clk := newFakeClock()
	g := clockGate(NewGateCfg(GateConfig{Capacity: 1, QueueDepth: 4, Target: time.Millisecond, Interval: 50 * time.Millisecond, Seed: 1}), clk)
	fillSlots(t, g, 1)
	g.observe(5 * time.Millisecond)
	clk.advance(51 * time.Millisecond)
	g.observe(5 * time.Millisecond)
	if !g.Stats().Dropping {
		t.Fatal("not dropping")
	}
	// Drain: release the slot, then a fast-path acquire must clear the
	// episode (queue delay is provably zero when a slot is free).
	g.Release()
	if err := g.AcquirePri(context.Background(), PriorityNormal); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	if g.Stats().Dropping {
		t.Fatal("still dropping after an uncontended admit")
	}
	g.Release()
}

func TestAdaptiveGateBelowTargetSojournResets(t *testing.T) {
	clk := newFakeClock()
	g := clockGate(NewGateCfg(GateConfig{Capacity: 1, QueueDepth: 4, Target: 10 * time.Millisecond, Interval: 50 * time.Millisecond, Seed: 1}), clk)
	fillSlots(t, g, 1)
	g.observe(20 * time.Millisecond)
	clk.advance(60 * time.Millisecond)
	g.observe(5 * time.Millisecond) // below target: streak broken
	g.observe(20 * time.Millisecond)
	if g.Stats().Dropping {
		t.Fatal("dropping despite streak reset by below-target sojourn")
	}
}

func TestRetryAfterDerivedFromDrainRate(t *testing.T) {
	clk := newFakeClock()
	g := clockGate(NewGateCfg(GateConfig{Capacity: 4, QueueDepth: 4, Seed: 42}), clk)

	// No drain observed yet: floor hint.
	if d := g.RetryAfter(); d != time.Second {
		t.Fatalf("cold RetryAfter = %v, want 1s", d)
	}

	// Simulate 4 in-flight plus releases at 10/sec over a window.
	fillSlots(t, g, 4)
	g.drainRate() // prime the window mark
	for i := 0; i < 4; i++ {
		g.Release()
	}
	fillSlots(t, g, 4)
	clk.advance(400 * time.Millisecond) // 4 releases / 0.4s = 10/s
	// backlog = 4 in flight; est = 4/10s = 400ms -> clamped to 1s floor.
	if d := g.RetryAfter(); d != time.Second {
		t.Fatalf("fast-drain RetryAfter = %v, want 1s floor", d)
	}

	// Now a slow drain: one more release over a long window.
	g.Release()
	fillSlots(t, g, 1)
	clk.advance(10 * time.Second) // 1 release / 10s = 0.1/s; backlog 4 -> est 40s
	for i := 0; i < 20; i++ {
		d := g.RetryAfter()
		if d < time.Second || d > 30*time.Second {
			t.Fatalf("RetryAfter out of clamp range: %v", d)
		}
	}
	if s := g.RetryAfterSeconds(); s < 1 || s > 30 {
		t.Fatalf("RetryAfterSeconds out of range: %d", s)
	}
}

func TestRetryAfterJitterVaries(t *testing.T) {
	clk := newFakeClock()
	g := clockGate(NewGateCfg(GateConfig{Capacity: 2, QueueDepth: 2, Seed: 7}), clk)
	// Build a backlog and a slow measured rate so est >> 1s and jitter has
	// room to show.
	fillSlots(t, g, 2)
	g.drainRate()
	g.Release()
	fillSlots(t, g, 1)
	clk.advance(5 * time.Second) // 0.2/s, backlog 2 -> est 10s

	seen := map[time.Duration]bool{}
	for i := 0; i < 32; i++ {
		seen[g.RetryAfter()] = true
	}
	if len(seen) < 2 {
		t.Fatalf("RetryAfter shows no jitter: %v", seen)
	}
}

func TestNilGateAdaptiveSurface(t *testing.T) {
	var g *Gate
	if err := g.AcquirePri(context.Background(), PriorityLow); err != nil {
		t.Fatalf("nil gate AcquirePri: %v", err)
	}
	if d := g.RetryAfter(); d != time.Second {
		t.Fatalf("nil gate RetryAfter = %v", d)
	}
	if s := g.RetryAfterSeconds(); s != 1 {
		t.Fatalf("nil gate RetryAfterSeconds = %d", s)
	}
}

func TestRetryBudget(t *testing.T) {
	b := NewRetryBudget() // starts full at 10 tokens
	spendAll := func(what string) {
		t.Helper()
		for i := 0; i < 10; i++ {
			if !b.Spend() {
				t.Fatalf("%s: retry %d refused", what, i+1)
			}
		}
		if b.Spend() {
			t.Fatalf("%s: an eleventh retry was allowed", what)
		}
	}
	spendAll("full budget")
	// Ten attempts at a tenth of a token each earn one retry.
	for i := 0; i < 9; i++ {
		b.Attempt()
	}
	if b.Spend() {
		t.Fatal("nine-tenths-earned budget allowed a retry")
	}
	b.Attempt()
	if !b.Spend() {
		t.Fatal("earned retry refused")
	}
	// Cap: many attempts never earn more than 10 tokens.
	for i := 0; i < 1000; i++ {
		b.Attempt()
	}
	spendAll("capped budget")
}

func TestAcquireSojournObservedWhileQueued(t *testing.T) {
	// A queued acquire that wins a slot must feed its sojourn to the
	// controller (this is the signal source for dropping mode).
	g := NewGateCfg(GateConfig{Capacity: 1, QueueDepth: 2, Target: time.Nanosecond, Interval: time.Hour, Seed: 1})
	if err := g.AcquirePri(context.Background(), PriorityNormal); err != nil {
		t.Fatalf("fill: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- g.AcquirePri(context.Background(), PriorityNormal) }()
	// Wait until queued, then free the slot.
	deadline := time.Now().Add(2 * time.Second)
	for g.Stats().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second acquire never queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(2 * time.Millisecond) // guarantee a measurable sojourn
	g.Release()
	if err := <-done; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	if st := g.Stats(); st.LastSojournUS == 0 {
		t.Fatalf("queued sojourn not observed: %+v", st)
	}
	g.Release()
}
