package experiments

import (
	"sync"

	"jvmpower/internal/core"
)

// Cross-runner singleflight. The in-memory flight cache on each Runner
// dedupes concurrent Runs *within* one campaign, but the daemon runs one
// Runner per job (each job has its own seed, context, and output buffer),
// so overlapping campaigns from different clients would still compute the
// same point twice. SharedFlights closes that gap: it coalesces in-flight
// computations across runners, keyed by the content-addressed disk-cache
// key — the same identity the disk cache stores under, which folds in
// seed, quick, and fault plan, so only byte-identical work ever coalesces.
// A group claims its members one at a time (see settle).
//
// It is an in-flight dedupe, not a store: a completed flight is forgotten
// immediately (the disk cache is the durable memo), so memory stays
// bounded by concurrency, not history.
type SharedFlights struct {
	mu      sync.Mutex
	flights map[string]*flight
}

// NewSharedFlights returns an empty cross-runner flight table.
func NewSharedFlights() *SharedFlights {
	return &SharedFlights{flights: make(map[string]*flight)}
}

// claim returns the flight for key and whether the caller owns it: the
// first caller takes a new flight, which it must publish, and later callers
// join that flight until it is published.
func (s *SharedFlights) claim(key string) (*flight, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.flights[key]; ok {
		return f, false
	}
	f := &flight{ready: make(chan struct{})}
	s.flights[key] = f
	return f, true
}

// publish gives the joiners of the flight f, claimed for key, the owner's
// outcome and forgets the flight. Joiners get the Outcome alone (nil
// Meter): exactly what a disk-cache hit would have served them, keeping
// figures byte-identical whichever job computed the point. Deterministic
// failures are shared too, since the simulation would fail identically
// for every joiner; a joiner takes the point back when the owner's own
// job was cancelled (see settle).
func (s *SharedFlights) publish(key string, f *flight, res *core.Result, err error) {
	if res != nil {
		f.res = &core.Result{Outcome: res.Outcome}
	}
	f.err = err
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.ready)
}
