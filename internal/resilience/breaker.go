package resilience

import (
	"sync"
	"time"
)

// Breaker is a consecutive-failure circuit breaker guarding an operation
// that can break persistently (a snapshot file that fails validation on
// every read): after threshold consecutive failures it opens and Allow
// reports false until cooldown has elapsed, after which attempts flow
// again (half-open); the first success closes it, while further failures
// restart the cooldown window — so a persistently broken dependency is
// probed at most once per cooldown instead of being hammered.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	mu          sync.Mutex
	consecutive int
	openSince   time.Time
	opens       uint64
	denied      uint64
}

// NewBreaker returns a closed breaker that opens after threshold
// consecutive failures and cools down for cooldown before probing again.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether an attempt should proceed. A nil breaker always
// allows.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.consecutive < b.threshold {
		return true
	}
	if b.now().Sub(b.openSince) < b.cooldown {
		b.denied++
		return false
	}
	return true // half-open: let a probe through
}

// Success records a successful attempt and closes the breaker.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.consecutive = 0
	b.mu.Unlock()
}

// Failure records a failed attempt and reports whether it opened the
// breaker: crossing the threshold opens it, and any failure past it
// restarts the cooldown window. A nil breaker never opens.
func (b *Breaker) Failure() (opened bool) {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.consecutive == b.threshold {
		b.opens++
		opened = true
	}
	if b.consecutive >= b.threshold {
		b.openSince = b.now()
	}
	return opened
}

// BreakerStats is a point-in-time snapshot of the breaker. The server
// exports it as the cocoserve_reload_breaker_* series.
type BreakerStats struct {
	State               string // closed | open | half-open
	ConsecutiveFailures int
	Opens               uint64 // times the breaker tripped
	Denied              uint64 // attempts refused while open
}

// Stats snapshots the breaker; a nil breaker reports closed.
func (b *Breaker) Stats() BreakerStats {
	if b == nil {
		return BreakerStats{State: "closed"}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BreakerStats{ConsecutiveFailures: b.consecutive, Opens: b.opens, Denied: b.denied}
	switch {
	case b.consecutive < b.threshold:
		st.State = "closed"
	case b.now().Sub(b.openSince) < b.cooldown:
		st.State = "open"
	default:
		st.State = "half-open"
	}
	return st
}
