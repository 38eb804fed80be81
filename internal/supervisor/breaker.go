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
// The supervisor keeps one per executor too, fed by connection-level
// deaths, and retires the executor for the run when it opens.
//
// There is deliberately no half-open timer: reopening after a cooldown
// would make a run's output depend on wall-clock scheduling, and the
// repository's figures are built on determinism. A tripped figure stays
// tripped until the operator restarts the run.
//
// The zero value is a closed breaker that opens after TripThreshold
// consecutive failures.
type Breaker struct {
	mu          sync.Mutex
	consecutive int
	open        bool
}

// TripThreshold is the consecutive-failure count that opens a Breaker:
// the executor deaths that retire an executor, or a figure's cells lost to
// crashed executors.
const TripThreshold = 3

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
	if !b.open && b.consecutive >= TripThreshold {
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
