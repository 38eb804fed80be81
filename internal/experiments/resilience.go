package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"jvmpower/internal/core"
	"jvmpower/internal/faultinject"
	"jvmpower/internal/stats"
	"jvmpower/internal/vm"
)

// Resilient acquisition. A real measurement campaign loses points: the
// chain faults, a run stalls, the operator interrupts. This file makes the
// dispatcher survive all of that the way the paper's week-long campaigns
// had to — bounded retries for transient faults, per-attempt timeouts and
// panic isolation, repetition quorums with robust outlier rejection, and
// graceful degradation where a dead point becomes a missing figure cell
// plus a fault-report entry instead of an aborted run.
//
// The failure taxonomy has exactly two kinds:
//
//   - abortive: the experiment definition itself is wrong
//     (InvalidPointError) or the operator cancelled the run
//     (context.Canceled). These stop everything — degrading them would
//     hide a bug or ignore the operator.
//   - tolerable: everything else — injected faults, panics, timeouts,
//     genuine simulator errors. These are retried where transient, then
//     recorded and degraded.

// InvalidPointError reports a point that can never characterize because
// the experiment definition is wrong — retrying or degrading it would
// paper over a bug in the matrix, so Runner.Run returns it before touching
// any cache and RunAll treats it as fatal.
type InvalidPointError struct {
	Point  Point
	Reason string
}

// Error implements error.
func (e *InvalidPointError) Error() string {
	return fmt.Sprintf("experiments: invalid point %s: %s", e.Point, e.Reason)
}

// validate checks the point against the constraints the VM layer would
// reject anyway, but with a typed, pre-cache error: Fig. 7's 448-point
// matrix should fail on its first bad point, not after filling caches.
func (p Point) validate() error {
	if p.Bench == nil {
		return &InvalidPointError{Point: p, Reason: "no benchmark"}
	}
	if p.HeapMB <= 0 {
		return &InvalidPointError{Point: p, Reason: fmt.Sprintf("heap %d MB must be positive", p.HeapMB)}
	}
	if p.Platform.Name == "" {
		return &InvalidPointError{Point: p, Reason: "no platform"}
	}
	switch p.Flavor {
	case vm.Jikes:
		if p.Collector != "" && !knownJikesPlan(p.Collector) {
			return &InvalidPointError{Point: p,
				Reason: fmt.Sprintf("unknown collector %q for Jikes", p.Collector)}
		}
	case vm.Kaffe:
		if p.Collector != "" && p.Collector != "KaffeMS" {
			return &InvalidPointError{Point: p,
				Reason: fmt.Sprintf("Kaffe supports only its own collector, not %q", p.Collector)}
		}
	default:
		return &InvalidPointError{Point: p, Reason: fmt.Sprintf("unknown VM flavor %d", p.Flavor)}
	}
	return nil
}

func knownJikesPlan(name string) bool {
	switch name {
	case "SemiSpace", "MarkSweep", "GenCopy", "GenMS":
		return true
	}
	return false
}

// abortive reports whether a point error must stop the whole run rather
// than degrade into a missing cell.
func abortive(err error) bool {
	var inv *InvalidPointError
	return errors.As(err, &inv) || errors.Is(err, context.Canceled)
}

// defaultRetries bounds how many times a transient fault is re-attempted.
const defaultRetries = 2

// retryBackoffBase is the first retry's delay; attempt n waits
// base<<n, scaled by a deterministic jitter in [0.5, 1.5).
const retryBackoffBase = 2 * time.Millisecond

// computeResilient produces one point's result through the full hardening
// stack: Reps quorum repetitions, each with bounded transient-fault
// retries, per-attempt timeout and panic isolation. It returns the result,
// the total number of characterization attempts, and the terminal error.
// On success the quorum-selected result is persisted to the disk cache.
func (r *Runner) computeResilient(p Point, k PointID) (*core.Result, int, error) {
	reps := r.Reps
	if reps < 1 {
		reps = 1
	}
	results := make([]*core.Result, 0, reps)
	attempts := 0
	var lastErr error
	for rep := 0; rep < reps; rep++ {
		res, n, err := r.attemptWithRetry(p, repSeed(r.Seed, rep))
		attempts += n
		if err != nil {
			if abortive(err) {
				return nil, attempts, err
			}
			// Quorum mode tolerates individual rep loss: the surviving
			// repetitions still vote. With reps==1 the loop ends and the
			// error is the outcome.
			lastErr = err
			continue
		}
		results = append(results, res)
	}
	if len(results) == 0 {
		return nil, attempts, lastErr
	}
	res := quorumSelect(results)
	r.storePoint(k, res)
	return res, attempts, nil
}

// repSeed derives the simulation seed for repetition rep. Repetition 0
// uses the runner's seed unchanged, so Reps=1 is bit-identical to a plain
// run; later reps get well-separated streams.
func repSeed(seed uint64, rep int) uint64 {
	if rep == 0 {
		return seed
	}
	return seed + uint64(rep)*0x9E3779B97F4A7C15
}

// quorumSelect reduces the surviving repetitions to one result: MAD
// outlier rejection (k=3.5) on total energy, then the survivor whose
// energy is nearest the survivors' median. The selected repetition's
// Result is returned whole — a median of full decompositions would
// fabricate a run that never executed.
func quorumSelect(results []*core.Result) *core.Result {
	if len(results) == 1 {
		return results[0]
	}
	energies := make([]float64, len(results))
	for i, res := range results {
		energies[i] = float64(res.Decomposition.TotalEnergy)
	}
	keep := stats.FilterOutliersMAD(energies, 3.5)
	kept := make([]float64, len(keep))
	for i, idx := range keep {
		kept[i] = energies[idx]
	}
	med := stats.Median(kept)
	best := keep[0]
	for _, idx := range keep[1:] {
		if abs(energies[idx]-med) < abs(energies[best]-med) {
			best = idx
		}
	}
	return results[best]
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// attemptWithRetry runs one repetition, re-attempting transient injected
// faults with exponential backoff and deterministic jitter. Panics,
// timeouts, and genuine errors are permanent for a deterministic
// simulation — only faults whose injection rolls fresh dice per attempt
// (faultinject.PointFail) can clear on retry.
func (r *Runner) attemptWithRetry(p Point, seed uint64) (*core.Result, int, error) {
	for attempt := 0; ; attempt++ {
		res, err := r.attemptGuarded(p, seed, attempt)
		if err == nil || !faultinject.IsTransient(err) || attempt >= defaultRetries {
			return res, attempt + 1, err
		}
		r.Metrics.Counter("experiments.points.retries").Inc()
		sleepBackoff(p.String(), attempt, r.Ctx)
	}
}

// sleepBackoff waits out one retry's backoff: retryBackoffBase<<attempt
// scaled by a jitter in [0.5, 1.5) hashed from (key, attempt), so a
// campaign's retry schedule replays exactly. Cancellation cuts the wait.
func sleepBackoff(key string, attempt int, ctx context.Context) {
	d := retryBackoffBase << uint(attempt)
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	h = (h ^ uint64(attempt)) * 1099511628211
	jitter := 0.5 + float64(h>>11)/float64(1<<53)
	d = time.Duration(float64(d) * jitter)
	if ctx == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// attemptGuarded runs one characterization attempt under the runner's
// timeout and cancellation context. With neither configured it calls the
// attempt directly on the caller's goroutine — the default path adds no
// goroutine, channel, or timer.
//
// When the guard abandons an attempt (timeout or cancellation) it closes
// the attempt's stop channel; the VM layer polls it at segment boundaries
// (core.RunConfig.Cancel), so the abandoned goroutine stops simulating
// within one segment instead of running the point to completion as orphan
// work. The experiments.attempts.inflight gauge counts guard goroutines
// whose attempt has not yet returned — after abandoned attempts wind down
// it reads 0.
func (r *Runner) attemptGuarded(p Point, seed uint64, attempt int) (*core.Result, error) {
	if r.PointTimeout <= 0 && r.Ctx == nil {
		return r.attemptOnce(p, seed, attempt, nil)
	}
	if r.Ctx != nil {
		if err := r.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	type outcome struct {
		res *core.Result
		err error
	}
	stop := make(chan struct{})
	ch := make(chan outcome, 1) // buffered: an abandoned attempt must not leak
	inflight := r.Metrics.Gauge("experiments.attempts.inflight")
	inflight.Add(1)
	go func() {
		defer inflight.Add(-1)
		res, err := r.attemptOnce(p, seed, attempt, stop)
		ch <- outcome{res, err}
	}()
	var timeout <-chan time.Time
	if r.PointTimeout > 0 {
		t := time.NewTimer(r.PointTimeout)
		defer t.Stop()
		timeout = t.C
	}
	var cancelled <-chan struct{}
	if r.Ctx != nil {
		cancelled = r.Ctx.Done()
	}
	select {
	case o := <-ch:
		return o.res, o.err
	case <-timeout:
		close(stop)
		r.Metrics.Counter("experiments.points.timeouts").Inc()
		return nil, fmt.Errorf("experiments: %s exceeded point timeout %v: %w",
			p, r.PointTimeout, context.DeadlineExceeded)
	case <-cancelled:
		close(stop)
		return nil, r.Ctx.Err()
	}
}

// attemptOnce is one characterization attempt: injected point-level faults
// fire here, and any panic below — injected or a genuine simulator bug —
// is recovered into the returned error so one dead point cannot take down
// the dispatcher.
func (r *Runner) attemptOnce(p Point, seed uint64, attempt int, stop <-chan struct{}) (res *core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = fmt.Errorf("experiments: panic computing %s: %v", p, v)
		}
	}()
	if r.Faults != nil {
		key := p.String()
		if r.Faults.PointPanics(key) {
			panic(fmt.Sprintf("faultinject: injected panic at %s", key))
		}
		if r.Faults.PointFails(key, attempt) {
			return nil, fmt.Errorf("experiments: %s attempt %d: %w",
				key, attempt, &faultinject.Fault{Class: faultinject.PointFail, Site: key})
		}
	}
	return r.computeOnce(p, seed, stop)
}

// FaultRecord is one permanently failed point in a figure's fault report.
type FaultRecord struct {
	Figure string `json:"figure"`
	Point  string `json:"point"`
	Error  string `json:"error"`
}

// recordFault appends a tolerated failure to the runner's fault report,
// bumps the metrics counter, and journals a FaultEvent.
func (r *Runner) recordFault(fig string, p Point, err error) {
	rec := FaultRecord{Figure: fig, Point: p.String(), Error: err.Error()}
	r.faultMu.Lock()
	r.faults = append(r.faults, rec)
	r.faultMu.Unlock()
	r.Metrics.Counter("experiments.points.faulted").Inc()
	if r.Journal != nil {
		_ = r.Journal.Record(FaultEvent{
			Event:  "fault",
			Figure: fig,
			Point:  rec.Point,
			Error:  rec.Error,
		})
	}
}

// Faulted returns a copy of the fault report accumulated so far: every
// point that failed permanently and was degraded out of a figure.
func (r *Runner) Faulted() []FaultRecord {
	r.faultMu.Lock()
	defer r.faultMu.Unlock()
	return append([]FaultRecord(nil), r.faults...)
}

// WriteFaultReport renders the fault report, one line per degraded point
// grouped by figure; it writes nothing when every point survived.
func (r *Runner) WriteFaultReport(w *os.File) {
	recs := r.Faulted()
	if len(recs) == 0 {
		return
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Figure < recs[j].Figure })
	fmt.Fprintf(w, "\nfault report: %d point(s) degraded\n", len(recs))
	for _, rec := range recs {
		fmt.Fprintf(w, "  [%s] %s: %s\n", rec.Figure, rec.Point, rec.Error)
	}
}

// cell fetches one figure cell's result with graceful degradation: a
// tolerable failure is recorded in the fault report and returned as a nil
// result with ok=false — the figure renders the cell missing and carries
// on. Abortive errors propagate.
//
// Under isolation each figure also has a circuit breaker fed by worker
// deaths: once the figure has lost BreakerThreshold consecutive cells to
// crashed workers, its remaining cells degrade immediately instead of
// feeding more points to a pool that is dying on every one — the
// looping-forever failure mode that kills week-long campaigns.
func (r *Runner) cell(fig string, p Point) (*core.Result, bool, error) {
	b := r.breaker(fig)
	if !b.Allow() {
		r.recordFault(fig, p, fmt.Errorf("experiments: %s: circuit breaker open, cell not dispatched", fig))
		return nil, false, nil
	}
	res, err := r.Run(p)
	if b != nil {
		r.observeBreaker(b, fig, err)
	}
	if err == nil {
		return res, true, nil
	}
	if abortive(err) {
		return nil, false, err
	}
	r.recordFault(fig, p, err)
	return nil, false, nil
}

// cellValue is cell for figures consuming one scalar: missing cells come
// back as NaN, which the table renderers print as the missing-cell mark.
func (r *Runner) cellValue(fig string, p Point, get func(*core.Result) float64) (float64, error) {
	res, ok, err := r.cell(fig, p)
	if err != nil {
		return 0, err
	}
	if !ok {
		return nan(), nil
	}
	return get(res), nil
}

// missingCell is the mark degraded cells render as.
const missingCell = "×"

// fmtCell renders one numeric table cell, mapping NaN (a degraded point)
// to the missing-cell mark.
func fmtCell(format string, v float64) string {
	if v != v {
		return missingCell
	}
	return fmt.Sprintf(format, v)
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// flavorByName inverts vm.Flavor.String; rebuild parses a wire spec's
// flavor with it.
func flavorByName(name string) (vm.Flavor, bool) {
	for _, f := range []vm.Flavor{vm.Jikes, vm.Kaffe} {
		if f.String() == name {
			return f, true
		}
	}
	return 0, false
}
