package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"

	"jvmpower/internal/core"
	"jvmpower/internal/vm"
)

// Resilient acquisition. A real measurement campaign loses points: the
// chain faults, a run stalls, the operator interrupts. This file makes the
// dispatcher survive all of that the way the paper's week-long campaigns
// had to — immediate bounded retries for transient faults, per-attempt
// timeouts and panic isolation, and graceful degradation where a dead
// point becomes a missing figure cell plus a fault-report entry instead of
// an aborted run. A point is one deterministic run from the seed, so it is
// characterized once: a repetition would only replay the same bytes.
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
// deaths: once the figure has lost supervisor.TripThreshold
// consecutive cells to crashed workers, its remaining cells degrade
// immediately instead of feeding more points to a pool that is dying on
// every one — the looping-forever failure mode that kills week-long
// campaigns.
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
