package resilience

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff produces exponentially growing retry delays with equal jitter:
// attempt n waits between ceil/2 and ceil where ceil = min(base<<n, max),
// so concurrent retriers spread out instead of synchronizing while still
// guaranteeing at least half the nominal delay.
type Backoff struct {
	base, max time.Duration

	mu      sync.Mutex
	rng     *rand.Rand
	attempt int
}

// NewBackoff returns a backoff starting at base and capped at max; seed
// makes the jitter sequence deterministic for tests.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = time.Millisecond
	}
	if max < base {
		max = base
	}
	return &Backoff{base: base, max: max, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the delay before the next retry and advances the attempt
// counter.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	ceil := b.max
	// base<<attempt, sticking to the cap once the doubling overflows.
	if d := b.base << uint(min(b.attempt, 62)); d > 0 && d < b.max {
		ceil = d
	}
	b.attempt++
	half := ceil / 2
	if half <= 0 {
		return ceil
	}
	return half + time.Duration(b.rng.Int63n(int64(half)+1))
}

// Reset rewinds the schedule to the first attempt (after a success).
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.attempt = 0
	b.mu.Unlock()
}

// Attempt reports how many delays have been handed out since the last
// Reset — where in the backoff schedule the retrier is, which the server
// exports as cocoserve_reload_backoff_attempt.
func (b *Backoff) Attempt() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.attempt
}
