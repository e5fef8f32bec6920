package resilience

import "sync/atomic"

// RetryBudget bounds how many retries a client may issue relative to the
// first-attempt traffic it sends, so that when a server sheds load the
// client fleet cannot amplify the overload by retrying everything at once
// (the classic retry storm). It is the token-bucket scheme from gRPC's
// retry design: every first attempt deposits a fraction of a token, every
// retry withdraws a whole one, and the balance is capped — so sustained
// retries cost sustained successes elsewhere, and a burst of sheds burns
// the budget out quickly instead of doubling the offered load.
//
// The balance is fixed-point millitokens in one atomic, so Attempt and
// Spend are lock-free and allocation-free.
type RetryBudget struct {
	tokens atomic.Int64
}

// A first attempt earns a tenth of a token, which allows roughly one retry
// per ten requests, and the balance holds at most ten tokens.
const (
	retryDeposit = 100    // millitokens added per first attempt
	retryCap     = 10_000 // millitoken cap
)

// NewRetryBudget returns a budget that starts full, so cold-start failures
// can still retry.
func NewRetryBudget() *RetryBudget {
	b := &RetryBudget{}
	b.tokens.Store(retryCap)
	return b
}

// Attempt records one first attempt, depositing its fraction of a retry
// token up to the cap.
func (b *RetryBudget) Attempt() {
	for {
		cur := b.tokens.Load()
		next := min(cur+retryDeposit, retryCap)
		if next == cur || b.tokens.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Spend withdraws one retry token; it reports false — and withdraws
// nothing — when the budget is exhausted and the retry must be dropped.
func (b *RetryBudget) Spend() bool {
	for {
		cur := b.tokens.Load()
		if cur < 1000 {
			return false
		}
		if b.tokens.CompareAndSwap(cur, cur-1000) {
			return true
		}
	}
}
