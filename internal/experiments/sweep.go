package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"jvmpower/internal/core"
	"jvmpower/internal/faultinject"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
)

// Sweep groups, the one unit of work. The paper runs each collector at
// every heap size of a sweep, and under SemiSpace the mutator does the
// same work at each of them: one run of core.CharacterizeSweep drives them
// all at once and gives every heap the result its own run would (see
// gc.Lanes for why this holds for SemiSpace alone). RunAll therefore makes
// one job of each run of consecutive SemiSpace points that differ only in
// heap size, and Run is the one-member group. Every route resolves a group
// the same way: in-process, on an executor, and under the daemon's shared
// flights.

// characterizeSweep indirects core.CharacterizeSweep so tests can inject
// failure modes.
var characterizeSweep = core.CharacterizeSweep

// sweepJobs splits points into RunAll's jobs, in order: each run of
// consecutive points that can share a lockstep run is one job, and every
// other point a job of its own. Points share a run when they are valid
// Jikes SemiSpace points whose identities differ only in heap size, and
// no fault plan or point timeout is active: point faults fire per point
// attempt and the budget is per point, so under either every job is one
// point.
func (r *Runner) sweepJobs(points []Point) [][]Point {
	perPoint := r.Faults.Enabled() || r.PointTimeout > 0
	var jobs [][]Point
	for i := 0; i < len(points); {
		j := i + 1
		if !perPoint && lockstep(points[i]) {
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

// resolve is the one job path: it resolves the group pts (see sweepJobs)
// and returns every member's flight, closed. It claims the flight of each
// member that no other caller of this Runner holds, settles those, and
// then waits for the members other callers hold. An invalid member fails
// it with an InvalidPointError before it touches any cache.
func (r *Runner) resolve(pts []Point) ([]*flight, error) {
	for _, p := range pts {
		if err := p.validate(); err != nil {
			return nil, err
		}
	}
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
	if len(owned) > 0 {
		r.settle(pts, flights, owned)
	}
	for _, f := range flights {
		<-f.ready
	}
	return flights, nil
}

// settle resolves the members of pts at the owned indices and closes their
// flights. With Shared flights set it claims each member there as well,
// one at a time: a member another runner holds is that runner's to
// compute, and is served from its outcome as "shared" once this caller's
// own members are done; it is claimed again if that runner's job was
// cancelled, since the cancellation is not this job's outcome. The
// members this caller holds are served from disk when stored there, and
// the rest computed in one step, as one task on the Supervisor or by
// attempt in-process, each stored before it is journaled. A disk hit's
// duration is its own load; a computed member's is the step's wall time up
// to its record, so a trace that subtracts point spans from figure time
// still sees the run's whole span. Every owned flight closes on every
// path: a panic outside the compute step, which recovers its own, fails
// the members still open.
func (r *Runner) settle(pts []Point, flights []*flight, owned []int) {
	keys := make([]string, len(pts))
	held := make([]*flight, len(pts)) // the Shared flights this caller owns
	closed := make([]bool, len(pts))
	finish := func(i int, start time.Time, source string, c computed) {
		r.observePoint(pts[i], source, time.Since(start), c.attempts, c.err)
		if held[i] != nil {
			r.Shared.publish(keys[i], held[i], c.res, c.err)
			held[i] = nil
		}
		flights[i].res, flights[i].err = c.res, c.err
		close(flights[i].ready)
		closed[i] = true
	}
	defer func() {
		if v := recover(); v != nil {
			for _, i := range owned {
				if !closed[i] {
					finish(i, time.Now(), "computed", computed{err: fmt.Errorf("experiments: panic computing %s: %v", pts[i], v)})
				}
			}
		}
	}()
	type join struct {
		i int
		f *flight
	}
	for todo := owned; len(todo) > 0; {
		start := time.Now()
		var mine []int
		var joined []join
		for _, i := range todo {
			if r.Shared == nil {
				mine = append(mine, i)
				continue
			}
			keys[i] = r.diskKey(pts[i].ID())
			f, own := r.Shared.claim(keys[i])
			if own {
				r.Metrics.Counter("experiments.shared.misses").Inc()
				held[i] = f
				mine = append(mine, i)
				continue
			}
			r.Metrics.Counter("experiments.shared.hits").Inc()
			joined = append(joined, join{i, f})
		}
		var misses []int
		for _, i := range mine {
			t0 := time.Now()
			if res, ok := r.loadPoint(pts[i].ID()); ok {
				finish(i, t0, "disk", computed{res: res})
				continue
			}
			misses = append(misses, i)
		}
		if len(misses) > 0 {
			run := make([]Point, len(misses))
			for j, i := range misses {
				run[j] = pts[i]
			}
			t0 := time.Now()
			source, out := "computed", []computed(nil)
			if r.Supervisor != nil {
				source, out = "isolated", r.computeIsolated(run)
			} else {
				out = r.attempt(run)
			}
			for j, i := range misses {
				if out[j].err == nil {
					r.storePoint(pts[i].ID(), out[j].res)
				}
				finish(i, t0, source, out[j])
			}
		}
		todo = nil
		for _, j := range joined {
			select {
			case <-j.f.ready:
			case <-r.runCtx().Done():
				finish(j.i, start, "shared", computed{err: r.runCtx().Err()})
				continue
			}
			if errors.Is(j.f.err, context.Canceled) {
				// The holder's job was cancelled. publish forgot the flight
				// before waking its joiners, so claiming again cannot meet
				// it a second time.
				todo = append(todo, j.i)
				continue
			}
			finish(j.i, start, "shared", computed{res: j.f.res, err: j.f.err})
		}
	}
}

// computed is one group member's result or error, and the characterization
// attempts it took.
type computed struct {
	res      *core.Result
	err      error
	attempts int
}

// defaultRetries bounds how many times a transient fault is re-attempted.
const defaultRetries = 2

// attempt characterizes the group pts, which differ only in heap size, on
// the caller's goroutine, and gives each member the result or error its
// own run gives. It is the one compute step: Run and RunAll call it
// in-process, and the worker and node handlers on an executor.
//
// Point faults fire per attempt, before the run, and a transient one is
// attempted again at once, up to defaultRetries times; a fault plan keeps
// every group to one point (see sweepJobs), so the attempts are that
// point's. The VM polls r.runCtx(), narrowed to PointTimeout when one is
// set, at every segment boundary. A cancelled run comes back as r.Ctx's
// error, and a run that outlives its budget as a timeout, whether the VM
// stopped at a poll or finished first: while every CPU is busy simulating,
// the deadline's timer can fire several milliseconds late. A panic below,
// injected or a simulator bug, is recovered into every member's error, so
// one dead group cannot take down the dispatcher.
func (r *Runner) attempt(pts []Point) (out []computed) {
	out = make([]computed, len(pts))
	attempts := 1
	fail := func(err func(Point) error) []computed {
		for i, p := range pts {
			out[i] = computed{err: err(p), attempts: attempts}
		}
		return out
	}
	defer func() {
		if v := recover(); v != nil {
			fail(func(p Point) error { return fmt.Errorf("experiments: panic computing %s: %v", p, v) })
		}
	}()
	ctx := r.runCtx()
	if err := ctx.Err(); err != nil {
		return fail(func(Point) error { return err })
	}
	for _, p := range pts {
		key := p.String()
		if r.Faults.PointPanics(key) {
			panic(fmt.Sprintf("faultinject: injected panic at %s", key))
		}
		for ; r.Faults.PointFails(key, attempts-1); attempts++ {
			if attempts > defaultRetries {
				return fail(func(Point) error {
					return fmt.Errorf("experiments: %s attempt %d: %w",
						key, attempts-1, &faultinject.Fault{Class: faultinject.PointFail, Site: key})
				})
			}
			r.Metrics.Counter("experiments.points.retries").Inc()
		}
	}
	cfg := r.runConfig(pts[0])
	cfg.Metrics, cfg.Faults = r.Metrics, r.Faults
	var deadline time.Time
	if r.PointTimeout > 0 {
		deadline = time.Now().Add(r.PointTimeout)
		var cancel context.CancelFunc
		cfg.Ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	heaps := make([]units.ByteSize, len(pts))
	for i, p := range pts {
		heaps[i] = units.ByteSize(p.HeapMB) * units.MB
	}
	results, errs := characterizeSweep(cfg, heaps)
	if err := ctx.Err(); err != nil {
		return fail(func(Point) error { return err })
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		r.Metrics.Counter("experiments.points.timeouts").Inc()
		return fail(func(p Point) error {
			return fmt.Errorf("experiments: %s exceeded point timeout %v: %w", p, r.PointTimeout, context.DeadlineExceeded)
		})
	}
	for i, p := range pts {
		out[i].attempts = attempts
		if errs[i] != nil {
			out[i].err = fmt.Errorf("experiments: %s: %w", p, errs[i])
			continue
		}
		out[i].res = &results[i]
	}
	return out
}
