package experiments

import (
	"fmt"
	"time"

	"jvmpower/internal/core"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
)

// Lockstep sweeps. The paper runs each collector at every heap size of a
// sweep, and under SemiSpace the mutator does the same work at each of
// them: one run of core.CharacterizeSweep drives them all at once and
// gives every heap the result its own run would (see gc.Lanes for why
// this holds for SemiSpace alone). RunAll therefore makes one job of each
// run of consecutive SemiSpace points that differ only in heap size.

// characterizeSweep indirects core.CharacterizeSweep so tests can inject
// failure modes, as characterize does for one point.
var characterizeSweep = core.CharacterizeSweep

// sweepJobs splits points into RunAll's jobs, in order: each run of
// consecutive points that can share a lockstep run is one job, and every
// other point a job of its own. Points share a run when the Runner would
// characterize them in-process, without a fault plan or a point timeout
// (which the lockstep run does not apply), and they are valid Jikes
// SemiSpace points whose identities differ only in heap size.
func (r *Runner) sweepJobs(points []Point) [][]Point {
	inProcess := r.Supervisor == nil && r.Shared == nil && !r.Faults.Enabled() && r.PointTimeout == 0
	var jobs [][]Point
	for i := 0; i < len(points); {
		j := i + 1
		if inProcess && lockstep(points[i]) {
			for j < len(points) && lockstep(points[j]) && sameSweep(points[i], points[j]) {
				j++
			}
		}
		jobs = append(jobs, points[i:j])
		i = j
	}
	return jobs
}

// lockstep reports whether p is a valid point of a plan whose heap sizes
// can run in lockstep.
func lockstep(p Point) bool {
	return p.Flavor == vm.Jikes && p.Collector == "SemiSpace" && p.validate() == nil
}

// sameSweep reports whether a and b differ at most in heap size.
func sameSweep(a, b Point) bool {
	ka, kb := a.ID(), b.ID()
	ka.HeapMB, kb.HeapMB = 0, 0
	return ka == kb
}

// runSweep is RunAll's job for a sweep group. It claims the flight of
// every member that no other caller holds, serves what it can of those
// from the disk cache and characterizes the rest in one lockstep run,
// storing each computed member before journaling it, as runPoint does for
// one point. It then waits for the members other callers hold, and
// returns the first abortive error among the members, in order.
func (r *Runner) runSweep(pts []Point) error {
	flights := make([]*flight, len(pts))
	var owned []int
	r.mu.Lock()
	for i, p := range pts {
		k := p.ID()
		if f, ok := r.cache[k]; ok {
			flights[i] = f
			continue
		}
		flights[i] = &flight{ready: make(chan struct{})}
		r.cache[k] = flights[i]
		owned = append(owned, i)
	}
	r.mu.Unlock()
	for range len(pts) - len(owned) {
		r.Metrics.Counter("experiments.singleflight.hits").Inc()
	}
	for range owned {
		r.Metrics.Counter("experiments.singleflight.misses").Inc()
	}
	r.resolveSweep(pts, flights, owned)
	for _, f := range flights {
		<-f.ready
		if f.err != nil && abortive(f.err) {
			return f.err
		}
	}
	return nil
}

// resolveSweep resolves the members of pts at the owned indices and
// closes their flights. A disk hit's duration is its own load; a computed
// member's is the lockstep run's wall time up to its journal record, so a
// trace that subtracts point spans from figure time still sees the run's
// whole span. Every owned flight closes on every path: a panic outside the
// lockstep run (attemptSweep recovers its own) fails the members still
// open, as runPoint does for one point.
func (r *Runner) resolveSweep(pts []Point, flights []*flight, owned []int) {
	closed := make([]bool, len(pts))
	finish := func(i int, start time.Time, source string, attempts int, res *core.Result, err error) {
		r.observePoint(pts[i], source, time.Since(start), attempts, err)
		flights[i].res, flights[i].err = res, err
		close(flights[i].ready)
		closed[i] = true
	}
	defer func() {
		if v := recover(); v != nil {
			for _, i := range owned {
				if !closed[i] {
					finish(i, time.Now(), "computed", 0, nil, fmt.Errorf("experiments: panic computing %s: %v", pts[i], v))
				}
			}
		}
	}()
	var misses []int
	for _, i := range owned {
		start := time.Now()
		if res, ok := r.loadPoint(pts[i].ID()); ok {
			finish(i, start, "disk", 0, res, nil)
			continue
		}
		misses = append(misses, i)
	}
	if len(misses) == 0 {
		return
	}
	run := make([]Point, len(misses))
	for j, i := range misses {
		run[j] = pts[i]
	}
	start := time.Now()
	res, errs := r.attemptSweep(run)
	for j, i := range misses {
		if errs[j] == nil {
			r.storePoint(pts[i].ID(), res[j])
		}
		finish(i, start, "computed", 1, res[j], errs[j])
	}
}

// attemptSweep is attemptOnce for a sweep group: one lockstep run of pts,
// which must differ only in heap size, on the caller's goroutine, giving
// each point the result or error its own attempt would. A panic below is
// recovered into every point's error, and a cancelled run comes back as
// r.Ctx's error.
func (r *Runner) attemptSweep(pts []Point) (res []*core.Result, errs []error) {
	res, errs = make([]*core.Result, len(pts)), make([]error, len(pts))
	defer func() {
		if v := recover(); v != nil {
			for i, p := range pts {
				res[i], errs[i] = nil, fmt.Errorf("experiments: panic computing %s: %v", p, v)
			}
		}
	}()
	ctx := r.runCtx()
	if ctx.Err() == nil {
		cfg := r.runConfig(pts[0])
		cfg.Metrics, cfg.Faults = r.Metrics, r.Faults
		heaps := make([]units.ByteSize, len(pts))
		for i, p := range pts {
			heaps[i] = units.ByteSize(p.HeapMB) * units.MB
		}
		results, cerrs := characterizeSweep(cfg, heaps)
		for i, p := range pts {
			if cerrs[i] != nil {
				errs[i] = fmt.Errorf("experiments: %s: %w", p, cerrs[i])
				continue
			}
			res[i] = &results[i]
		}
	}
	if err := ctx.Err(); err != nil {
		for i := range pts {
			res[i], errs[i] = nil, err
		}
	}
	return res, errs
}
