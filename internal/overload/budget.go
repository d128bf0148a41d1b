package overload

import "sync"

// Budget is a token-bucket retry budget: every fresh request deposits
// Ratio tokens (capped at Burst) and every retry withdraws one, so
// steady-state retries can never exceed Ratio× the fresh traffic rate.
// This is the defense against retry storms — when the backend is sick,
// fresh traffic slows, deposits slow, and retries throttle themselves
// instead of amplifying the outage. A nil *Budget disables the brake
// (every retry allowed), so callers never nil-check.
// Token arithmetic is integer millitokens so that ratio deposits
// accumulate exactly: ten 0.1-ratio deposits fund precisely one retry,
// with no float round-off leaking or starving budget over time.
const milli = 1000

type Budget struct {
	mu      sync.Mutex
	ratio   int64 // millitokens deposited per fresh request
	burst   int64 // millitoken cap
	tokens  int64 // millitokens available
	allowed uint64
	denied  uint64
}

// BudgetStats is a snapshot for /metrics.
type BudgetStats struct {
	Tokens  float64
	Allowed uint64
	Denied  uint64
}

// NewBudget returns a budget granting ratio retry tokens per fresh
// request, holding at most burst unspent tokens. Ratio 0.1 is the
// classic "retries ≤ 10% of fresh traffic" policy. The bucket starts
// full so cold-start retries are not starved.
func NewBudget(ratio, burst float64) *Budget {
	if ratio <= 0 {
		ratio = 0.1
	}
	if burst <= 0 {
		burst = 10
	}
	mratio := int64(ratio*milli + 0.5)
	if mratio < 1 {
		mratio = 1
	}
	mburst := int64(burst*milli + 0.5)
	return &Budget{ratio: mratio, burst: mburst, tokens: mburst}
}

// OnRequest credits the budget for one fresh (non-retry) request.
func (b *Budget) OnRequest() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// Allow spends one token if available, reporting whether the retry may
// proceed. Denied retries must surface the original error.
func (b *Budget) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens >= milli {
		b.tokens -= milli
		b.allowed++
		return true
	}
	b.denied++
	return false
}

// Stats snapshots the budget counters. Safe on a nil budget.
func (b *Budget) Stats() BudgetStats {
	if b == nil {
		return BudgetStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BudgetStats{Tokens: float64(b.tokens) / milli, Allowed: b.allowed, Denied: b.denied}
}
