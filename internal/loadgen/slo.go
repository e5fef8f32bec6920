package loadgen

import (
	"fmt"
	"time"
)

// SLO is what the serve layer promises under overload and chaos, checked
// against a phase's measurements:
//
//   - no admitted request is silently sat on (zero hangs at the cap),
//   - overload answers are 429s, never 5xx,
//   - the work that IS admitted finishes inside its deadline (p99 of
//     successes within Deadline+grace; stragglers show up as LateOK),
//   - shedding keeps the system productive: goodput under chaos stays
//     above GoodputFloor x a no-chaos baseline instead of collapsing.
type SLO struct {
	Deadline time.Duration
	// GoodputFloor is the fraction of baseline goodput a chaos phase must
	// retain; default 0.5.
	GoodputFloor float64
}

// maxLateFrac bounds LateOK/(OK+LateOK), the admitted-but-late successes:
// a little client-side scheduling noise is unavoidable at high concurrency.
const maxLateFrac = 0.01

// Check asserts the always-on SLOs on one phase. Returned strings are
// human-readable violations; empty means the phase passed.
func (s SLO) Check(r *Result) []string {
	var v []string
	c := &r.Counts
	if c.ServerErr > 0 {
		v = append(v, fmt.Sprintf("%s: %d responses were 5xx (overload must shed with 429, never error)", r.Name, c.ServerErr))
	}
	if c.Hang > 0 {
		v = append(v, fmt.Sprintf("%s: %d requests hung past the %v cap (admitted work must finish or be canceled)", r.Name, c.Hang, HangCap(s.Deadline)))
	}
	ok, late := c.OK, c.LateOK
	if total := ok + late; total > 0 {
		if frac := float64(late) / float64(total); frac > maxLateFrac {
			v = append(v, fmt.Sprintf("%s: %.1f%% of successes blew the %v deadline (max %.1f%%) — p99 %v",
				r.Name, frac*100, s.Deadline, maxLateFrac*100, r.Lat.Quantile(0.99)))
		}
	}
	if ok == 0 && c.Sent > 0 {
		v = append(v, fmt.Sprintf("%s: zero in-deadline successes out of %d sent", r.Name, c.Sent))
	}
	return v
}

// CheckGoodput asserts a chaos phase retained enough of the baseline's
// goodput. Both phases should have run the same mix and offered rate.
func (s SLO) CheckGoodput(baseline, chaos *Result) []string {
	floor := s.GoodputFloor
	if floor == 0 {
		floor = 0.5
	}
	if chaos.Goodput < baseline.Goodput*floor {
		return []string{fmt.Sprintf("%s: goodput collapsed under chaos: %.1f req/s vs %.1f baseline (floor %.0f%%)",
			chaos.Name, chaos.Goodput, baseline.Goodput, floor*100)}
	}
	return nil
}
