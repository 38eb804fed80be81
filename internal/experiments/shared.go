package experiments

import (
	"context"
	"errors"
	"fmt"
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
// seed, quick, fault plan, and reps, so only byte-identical work ever
// coalesces.
//
// It is an in-flight dedupe, not a store: a completed flight is forgotten
// immediately (the disk cache is the durable memo), so memory stays
// bounded by concurrency, not history.
type SharedFlights struct {
	mu      sync.Mutex
	flights map[string]*sharedFlight
}

// sharedFlight is one in-flight point: ready closes when res/err are set.
type sharedFlight struct {
	ready chan struct{}
	res   *core.Result
	err   error
}

// NewSharedFlights returns an empty cross-runner flight table.
func NewSharedFlights() *SharedFlights {
	return &SharedFlights{flights: make(map[string]*sharedFlight)}
}

// compute produces one point's result, coalescing with any other runner's
// in-flight computation of the same content-addressed key. The first
// caller owns the computation (through the runner's normal supervisor or
// in-process path); joiners wait and share the outcome with
// source "shared". Deterministic failures are shared too — the simulation
// would fail identically for every joiner — but an owner cancelled by its
// *own* job's context must not poison the others: joiners detect
// context.Canceled and retake ownership.
func (s *SharedFlights) compute(r *Runner, p Point, k pointKey) (*core.Result, string, int, error) {
	key := r.diskKey(k)
	for {
		s.mu.Lock()
		if f, ok := s.flights[key]; ok {
			s.mu.Unlock()
			r.Metrics.Counter("experiments.shared.hits").Inc()
			if r.Ctx != nil {
				select {
				case <-f.ready:
				case <-r.Ctx.Done():
					return nil, "shared", 0, r.Ctx.Err()
				}
			} else {
				<-f.ready
			}
			if f.err != nil && errors.Is(f.err, context.Canceled) {
				// The owner's job went away mid-flight; its cancellation
				// is not this job's outcome. Loop and retake the key (the
				// finished flight was already unpublished before ready
				// closed, so this cannot spin on the same entry).
				continue
			}
			return f.res, "shared", 0, f.err
		}
		f := &sharedFlight{ready: make(chan struct{})}
		s.flights[key] = f
		s.mu.Unlock()
		r.Metrics.Counter("experiments.shared.misses").Inc()
		return s.own(r, p, k, key, f)
	}
}

// own runs the computation as the flight owner and publishes the outcome.
// Every exit path — success, failure, panic — unpublishes the flight and
// closes ready, so joiners can never be stranded (the PR 2 singleflight
// lesson, applied across runners).
func (s *SharedFlights) own(r *Runner, p Point, k pointKey, key string, f *sharedFlight) (res *core.Result, source string, attempts int, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fmt.Errorf("experiments: panic computing %s: %v", p, v)
		}
		// Joiners get the cache-shaped subset (nil Meter): exactly what a
		// disk-cache hit would have served them, keeping figures
		// byte-identical whichever job computed the point.
		f.res, f.err = shareable(res), err
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		close(f.ready)
	}()
	// A flight that finished after runPoint's cache probe has already
	// stored its result and unpublished itself: serve the stored copy
	// rather than compute the point a second time.
	if cached, ok := r.loadPoint(k); ok {
		return cached, "disk", 0, nil
	}
	res, source, attempts, err = r.computePoint(p, k)
	return res, source, attempts, err
}

// shareable strips a result to the persisted subset the figures consume —
// the same fields the disk cache round-trips (see cachedPoint).
func shareable(res *core.Result) *core.Result {
	if res == nil {
		return nil
	}
	return &core.Result{
		Decomposition: res.Decomposition,
		GCStats:       res.GCStats,
		LoadedClasses: res.LoadedClasses,
		FaultCounts:   res.FaultCounts,
	}
}
