package supervisor

import "sync"

// Breaker is a consecutive-failure circuit breaker. The experiments
// dispatcher keeps one per figure: every worker death recorded against a
// figure advances its count, any success resets it, and once the count
// reaches the threshold the breaker opens permanently for the run — the
// figure's remaining cells degrade to missing instead of feeding points to
// a worker pool that is dying on every one of them ("looping forever" is
// exactly the failure mode the VM-warmup literature reports week-long
// campaigns dying to).
//
// There is deliberately no half-open timer: reopening after a cooldown
// would make a run's output depend on wall-clock scheduling, and the
// repository's figures are built on determinism. A tripped figure stays
// tripped until the operator restarts the run.
type Breaker struct {
	mu          sync.Mutex
	threshold   int
	consecutive int
	open        bool
}

// NewBreaker returns a breaker that opens after threshold consecutive
// failures. A threshold <= 0 never opens (the disabled configuration).
func NewBreaker(threshold int) *Breaker {
	return &Breaker{threshold: threshold}
}

// Allow reports whether the protected operation may proceed. Nil-safe: a
// nil breaker always allows.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.open
}

// Record notes one outcome. It returns true exactly once: on the failure
// that trips the breaker open, so the caller can log the transition.
// Nil-safe no-op.
func (b *Breaker) Record(failure bool) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !failure {
		b.consecutive = 0
		return false
	}
	b.consecutive++
	if !b.open && b.threshold > 0 && b.consecutive >= b.threshold {
		b.open = true
		return true
	}
	return false
}

// Tripped reports whether the breaker has opened. Nil-safe.
func (b *Breaker) Tripped() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}
