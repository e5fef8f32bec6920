package resilience

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSaturated reports that both the running slots and the wait queue are
// full: the caller should shed the request (HTTP 429 + Retry-After), not
// queue it — unbounded queuing under overload only converts saturation
// into timeouts.
var ErrSaturated = errors.New("resilience: admission queue saturated")

// ErrQueueDelay reports that the adaptive controller shed the request
// before it ever queued: the gate's standing queue delay has exceeded the
// configured target for at least one interval, so adding more waiters
// would only grow the sojourn time everyone pays. The caller should shed
// exactly like ErrSaturated; the two errors differ only in *why*.
var ErrQueueDelay = errors.New("resilience: queue delay above target")

// Priority classifies admissions for the adaptive controller into two
// classes. While the controller is in dropping mode (standing queue delay
// above target), PriorityLow work is shed first and continuously, and
// PriorityNormal work is shed on the CoDel control-law schedule. Callers
// that answer from a cache before acquiring the gate have an implicit
// class above both.
type Priority uint8

const (
	// PriorityNormal is interactive single-query work: shed on the CoDel
	// control-law schedule while the controller is dropping.
	PriorityNormal Priority = iota
	// PriorityLow is batch/bulk work: the first class to shed, and shed
	// continuously while the controller is dropping.
	PriorityLow
	numPriorities
)

// String names the class for logs and stats.
func (p Priority) String() string {
	switch p {
	case PriorityNormal:
		return "normal"
	case PriorityLow:
		return "low"
	}
	return "unknown"
}

// GateConfig configures an adaptive Gate beyond the two hard limits.
// The zero value of every knob means "use the default".
type GateConfig struct {
	// Capacity holders run at once; <1 is raised to 1.
	Capacity int
	// QueueDepth more wait for a slot; <0 is clamped to 0.
	QueueDepth int
	// Target is the CoDel target: the standing queue delay the controller
	// tolerates. Waiters observing sojourns above Target continuously for
	// Interval flip the gate into dropping mode. 0 means DefaultTarget.
	Target time.Duration
	// Interval is the CoDel interval: how long sojourns must stay above
	// Target before dropping starts, and the base spacing of control-law
	// sheds. 0 means DefaultInterval.
	Interval time.Duration
	// Seed seeds the Retry-After jitter; 0 derives one from the clock.
	Seed int64
}

// Default CoDel parameters: the classic 5ms/100ms from the CoDel paper
// scale to interactive RPC serving unchanged — a request that sits queued
// for >5ms on a machine that answers cache hits in microseconds is already
// waiting orders of magnitude longer than it runs.
const (
	DefaultTarget   = 5 * time.Millisecond
	DefaultInterval = 100 * time.Millisecond
)

// retry-hint clamps: a shed client is told to come back within [1s, 30s].
const (
	minRetryAfter = time.Second
	maxRetryAfter = 30 * time.Second
)

// Gate is an adaptive admission controller. The hard shape is unchanged
// from the fixed gate it replaces: up to capacity callers hold a slot at
// once, up to queueDepth more wait for one inside the caller's deadline,
// and everything beyond that is shed immediately (ErrSaturated). On top of
// that, a CoDel-style controller watches the *sojourn time* of queued
// acquisitions: when waiters keep sitting past the target delay for a full
// interval, the gate flips into dropping mode and sheds new arrivals
// (ErrQueueDelay) by priority class — low first, normal on the control-law
// schedule — instead of letting the queue run full and converting overload
// into worst-case latency for everyone.
//
// AcquirePri on the uncontended path is one channel send plus two atomic
// loads — no allocation, no lock. A nil *Gate admits everything.
type Gate struct {
	slots chan struct{} // buffered to capacity; a held slot is a buffered element
	queue chan struct{} // buffered to queueDepth; tokens held while waiting

	target   time.Duration
	interval time.Duration
	now      func() time.Time // injectable clock for tests; nil means time.Now

	inflight atomic.Int64
	waiting  atomic.Int64
	admitted atomic.Uint64
	shed     atomic.Uint64
	shedBy   [numPriorities]atomic.Uint64
	overDly  atomic.Uint64 // sheds decided by the controller (vs hard saturation)

	// armed mirrors "mu-guarded state is non-zero" so the uncontended
	// fast path can skip the mutex entirely: it is set while firstAbove
	// or dropping is live and cleared by resetLocked.
	armed atomic.Bool

	// CoDel controller state, mutated only under mu (the queued/shedding
	// paths, which are contended by definition).
	mu          sync.Mutex
	firstAbove  time.Time // when a sojourn streak above target ends the grace interval; zero = no streak
	dropping    bool
	dropNext    time.Time // next control-law shed while dropping
	dropCount   int       // sheds this dropping episode (control-law divisor)
	lastSojourn time.Duration

	// Drain-rate estimator for Retry-After: Release bumps one atomic; the
	// rate is sampled lazily (only sheds read it) over >=100ms windows.
	releases  atomic.Uint64
	rateMu    sync.Mutex
	rateMark  time.Time
	relMark   uint64
	ratePerS  float64
	rateKnown bool

	rng atomic.Uint64 // xorshift state for Retry-After jitter
}

// NewGateCfg returns an adaptive gate admitting cfg.Capacity concurrent
// holders with a bounded wait queue of cfg.QueueDepth behind them.
func NewGateCfg(cfg GateConfig) *Gate {
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.Target <= 0 {
		cfg.Target = DefaultTarget
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	g := &Gate{
		slots:    make(chan struct{}, cfg.Capacity),
		queue:    make(chan struct{}, cfg.QueueDepth),
		target:   cfg.Target,
		interval: cfg.Interval,
	}
	g.rng.Store(uint64(cfg.Seed) | 1) // xorshift state must be non-zero
	return g
}

func (g *Gate) clock() time.Time {
	if g.now != nil {
		return g.now()
	}
	return time.Now()
}

// AcquirePri admits the caller, waits for a slot in the bounded queue, or
// sheds. It returns nil when a slot is held (the caller must Release),
// ErrSaturated when slots and queue are both full, ErrQueueDelay when the
// adaptive controller shed the request for this priority class, and
// ctx.Err() when the deadline expires or is canceled while queued. A nil
// gate admits everything.
func (g *Gate) AcquirePri(ctx context.Context, pri Priority) error {
	if g == nil {
		return nil
	}
	select {
	case g.slots <- struct{}{}:
		g.inflight.Add(1)
		g.admitted.Add(1)
		// A free slot means no standing queue: the CoDel signal (minimum
		// sojourn over the interval) just touched zero, so any dropping
		// episode ends. The atomic keeps the fast path lock-free.
		if g.armed.Load() {
			g.resetController()
		}
		return nil
	default:
	}
	// All slots busy. Ask the controller first: while the standing queue
	// delay is above target, shedding here (before taking a queue token)
	// is what keeps the queue short for the work that is admitted.
	if g.controllerSheds(pri) {
		g.shed.Add(1)
		g.shedBy[pri].Add(1)
		g.overDly.Add(1)
		return ErrQueueDelay
	}
	// Take a queue token or shed on the hard limit.
	select {
	case g.queue <- struct{}{}:
	default:
		g.shed.Add(1)
		g.shedBy[pri].Add(1)
		return ErrSaturated
	}
	g.waiting.Add(1)
	start := g.clock()
	defer func() {
		g.waiting.Add(-1)
		<-g.queue
	}()
	select {
	case g.slots <- struct{}{}:
		g.observe(g.clock().Sub(start))
		g.inflight.Add(1)
		g.admitted.Add(1)
		return nil
	case <-ctx.Done():
		// A wait that burned the whole deadline is itself a sojourn
		// measurement — and a strong one.
		g.observe(g.clock().Sub(start))
		g.shed.Add(1)
		g.shedBy[pri].Add(1)
		return ctx.Err()
	}
}

// observe feeds one queued-acquisition sojourn to the controller.
func (g *Gate) observe(sojourn time.Duration) {
	now := g.clock()
	g.mu.Lock()
	g.lastSojourn = sojourn
	if sojourn < g.target {
		g.resetLocked()
	} else {
		switch {
		case g.firstAbove.IsZero():
			// First above-target sojourn: start the grace interval.
			g.firstAbove = now.Add(g.interval)
		case !g.dropping && now.After(g.firstAbove):
			// Above target continuously for a full interval: start
			// dropping. Episodes that resume shortly after the last one
			// restart near the previous drop rate instead of from 1 —
			// CoDel's "drop state" memory — approximated here by keeping
			// dropCount decayed rather than cleared on exit.
			g.dropping = true
			if g.dropCount > 2 {
				g.dropCount -= 2
			} else {
				g.dropCount = 1
			}
			g.dropNext = now.Add(g.controlLaw())
		}
		g.armed.Store(true)
	}
	g.mu.Unlock()
}

// controllerSheds decides whether the adaptive controller sheds an arrival
// of the given priority while every slot is busy.
func (g *Gate) controllerSheds(pri Priority) bool {
	if !g.armed.Load() {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.dropping {
		return false
	}
	if pri == PriorityLow {
		// The lowest class does not get control-law pacing: while the
		// queue delay is above target, batch work yields its queue space
		// to interactive work wholesale.
		return true
	}
	now := g.clock()
	if now.After(g.dropNext) {
		g.dropCount++
		g.dropNext = now.Add(g.controlLaw())
		return true
	}
	return false
}

// controlLaw returns the CoDel drop spacing: interval / sqrt(dropCount).
func (g *Gate) controlLaw() time.Duration {
	return time.Duration(float64(g.interval) / math.Sqrt(float64(g.dropCount)))
}

// resetController exits any dropping episode (called from the uncontended
// fast path when a slot was free, via one atomic check).
func (g *Gate) resetController() {
	g.mu.Lock()
	g.resetLocked()
	g.mu.Unlock()
}

func (g *Gate) resetLocked() {
	g.firstAbove = time.Time{}
	g.dropping = false
	g.armed.Store(false)
}

// Release returns a slot taken by a successful AcquirePri and feeds the
// drain-rate estimator behind Retry-After.
func (g *Gate) Release() {
	if g == nil {
		return
	}
	g.inflight.Add(-1)
	g.releases.Add(1)
	<-g.slots
}

// Saturated reports whether an AcquirePri right now would hard-shed: every
// slot held and every queue position taken. A nil gate is never saturated.
func (g *Gate) Saturated() bool {
	if g == nil {
		return false
	}
	return len(g.slots) == cap(g.slots) && len(g.queue) == cap(g.queue)
}

// drainRate estimates the gate's recent drain rate in releases per second,
// sampled over windows of at least 100ms. The second return is false until
// a full window has been measured.
func (g *Gate) drainRate() (float64, bool) {
	now := g.clock()
	rel := g.releases.Load()
	g.rateMu.Lock()
	defer g.rateMu.Unlock()
	if g.rateMark.IsZero() {
		g.rateMark, g.relMark = now, rel
		return g.ratePerS, g.rateKnown
	}
	if elapsed := now.Sub(g.rateMark); elapsed >= 100*time.Millisecond {
		g.ratePerS = float64(rel-g.relMark) / elapsed.Seconds()
		g.rateKnown = true
		g.rateMark, g.relMark = now, rel
	}
	return g.ratePerS, g.rateKnown
}

// xorshift64 advances the jitter state lock-free.
func (g *Gate) rand() uint64 {
	for {
		old := g.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if g.rng.CompareAndSwap(old, x) {
			return x
		}
	}
}

// RetryAfter is the jittered hint a shed response should carry: how long
// until the backlog ahead of a retry (current waiters plus in-flight work)
// drains at the observed drain rate, equal-jittered to [est/2, est] so a
// burst of simultaneously shed clients does not re-stampede the gate in
// lockstep, clamped to [1s, 30s]. With no drain observed yet the hint is
// the 1s floor. A nil gate hints the floor.
func (g *Gate) RetryAfter() time.Duration {
	if g == nil {
		return minRetryAfter
	}
	backlog := g.waiting.Load() + g.inflight.Load()
	rate, known := g.drainRate()
	var est time.Duration
	switch {
	case !known || backlog <= 0:
		est = minRetryAfter
	case rate <= 0:
		// Saturated and nothing draining: the longest hint we give.
		est = maxRetryAfter
	default:
		est = time.Duration(float64(backlog) / rate * float64(time.Second))
	}
	if est > minRetryAfter {
		// Equal jitter: half deterministic, half uniform.
		half := est / 2
		est = half + time.Duration(g.rand()%uint64(half+1))
	}
	if est < minRetryAfter {
		est = minRetryAfter
	}
	if est > maxRetryAfter {
		est = maxRetryAfter
	}
	return est
}

// RetryAfterSeconds is RetryAfter in whole seconds (ceiling), the unit the
// HTTP Retry-After header carries; always >= 1.
func (g *Gate) RetryAfterSeconds() int {
	d := g.RetryAfter()
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// GateStats is a point-in-time snapshot of the gate, which the server
// exports as cocoserve_gate_* series (Shed sums shed_total's priorities).
type GateStats struct {
	Capacity   int
	QueueDepth int
	InFlight   int64
	Waiting    int64
	Admitted   uint64
	Shed       uint64

	// Adaptive-controller state.
	TargetMicros   int64   // CoDel target sojourn
	IntervalMicros int64   // CoDel interval
	Dropping       bool    // controller in dropping mode
	LastSojournUS  int64   // most recent queued-acquire sojourn
	ShedOverDelay  uint64  // sheds decided by the controller
	ShedNormal     uint64  // sheds of PriorityNormal
	ShedLow        uint64  // sheds of PriorityLow
	DrainPerSec    float64 // observed release rate
	RetryAfterSecs int     // the hint a shed would carry now
}

// Stats snapshots the gate's counters; a nil gate reports zeros.
func (g *Gate) Stats() GateStats {
	if g == nil {
		return GateStats{}
	}
	g.mu.Lock()
	dropping := g.dropping
	sojourn := g.lastSojourn
	g.mu.Unlock()
	rate, _ := g.drainRate()
	return GateStats{
		Capacity:       cap(g.slots),
		QueueDepth:     cap(g.queue),
		InFlight:       g.inflight.Load(),
		Waiting:        g.waiting.Load(),
		Admitted:       g.admitted.Load(),
		Shed:           g.shed.Load(),
		TargetMicros:   g.target.Microseconds(),
		IntervalMicros: g.interval.Microseconds(),
		Dropping:       dropping,
		LastSojournUS:  sojourn.Microseconds(),
		ShedOverDelay:  g.overDly.Load(),
		ShedNormal:     g.shedBy[PriorityNormal].Load(),
		ShedLow:        g.shedBy[PriorityLow].Load(),
		DrainPerSec:    rate,
		RetryAfterSecs: g.RetryAfterSeconds(),
	}
}
