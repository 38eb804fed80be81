package experiments

import (
	"fmt"
	"time"

	"jvmpower/internal/core"
)

// Observability of the characterization pipeline itself. A long `-all` run
// executes hundreds of points across parallel workers; when one stalls or
// fails there must be a record of which. Two channels, both optional and
// both invisible to figure output:
//
//   - Runner.Metrics: counters/gauges/histograms (schema below), exported
//     as JSON by `cmd/experiments -metrics FILE` and served live by
//     `-http ADDR`.
//   - Runner.Journal: one JSONL PointEvent per completed point.
//
// Metrics schema (all under the experiments.* prefix; the DAQ and core
// layers add daq.samples, daq.batches, core.characterize.runs):
//
//	singleflight.hits / singleflight.misses   counter  Run calls joining an
//	                                                   existing flight vs
//	                                                   owning a new one
//	diskcache.hits / diskcache.misses         counter  persistent-cache
//	                                                   split (misses only
//	                                                   counted when -cache
//	                                                   is enabled)
//	points.completed / points.errors          counter  unique points
//	point.seconds                             histogram point latency
//	workers.active                            gauge    live worker count
//	workers.count                             gauge    RunAll pool size
//	workers.busy_ns                           counter  summed point time;
//	                                                   utilization =
//	                                                   busy_ns/(wall×count)
//	runall.calls / runall.wall_seconds        counter/gauge
//	figures.run / figures.errors              counter
//	figure.<name>.seconds                     gauge    per-figure wall time
//	diskcache.corrupt                         counter  cache entries that
//	                                                   failed envelope
//	                                                   verification and were
//	                                                   quarantined
//	diskcache.write_errors                    counter  failed cache writes
//	                                                   (first also journals a
//	                                                   CacheEvent warning)
//	resume.unparseable                        counter  journal point records
//	                                                   skipped by LoadResume
//	                                                   (unknown VM flavor)
//	resume.salvage_dropped                    counter  corrupt journal lines
//	                                                   dropped by the
//	                                                   salvaging decoder
//	                                                   during LoadResume

// PointEvent is one run-journal record: the point's identity, where its
// result came from, how long it took, and how it ended. LoadResume replays
// these to decide which points a crashed run already completed.
type PointEvent struct {
	Bench     string `json:"bench"`
	Flavor    string `json:"flavor"`
	Collector string `json:"collector,omitempty"`
	HeapMB    int    `json:"heap_mb"`
	Platform  string `json:"platform"`
	S10       bool   `json:"s10,omitempty"`
	FanOff    bool   `json:"fan_off,omitempty"`
	Outcome   string `json:"outcome"` // "ok" or "error"
	// Source is where the result came from: "computed" (in-process),
	// "isolated" (a supervised executor, local worker or remote node),
	// "shared", "disk", "resume", or "merged". Older journals also say
	// "fleet" for a remote node.
	Source     string  `json:"source"`
	DurationMS float64 `json:"duration_ms"`
	Error      string  `json:"error,omitempty"`
	// Attempts counts characterization attempts across retries and quorum
	// repetitions; omitted for cache-served points.
	Attempts int `json:"attempts,omitempty"`
}

// FaultEvent is the journal record of a permanently failed, degraded
// point: which figure lost it and why. Distinguished from PointEvents by
// the event field ("fault").
type FaultEvent struct {
	Event  string `json:"event"` // "fault"
	Figure string `json:"figure"`
	Point  string `json:"point"`
	Error  string `json:"error"`
}

// runPoint produces one point's result — from the on-disk cache when
// enabled and populated, otherwise by characterizing — and observes the
// outcome: latency histogram, cache-split counters, one journal event.
// A panic anywhere below (a simulator bug) is recovered into the returned
// error, so the singleflight entry caches a diagnosis instead of stranding
// its waiters.
func (r *Runner) runPoint(p Point, k pointKey) (res *core.Result, err error) {
	start := time.Now()
	source := "computed"
	attempts := 0
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = fmt.Errorf("experiments: panic computing %s: %v", p, v)
		}
		r.observePoint(p, source, time.Since(start), attempts, err)
	}()
	if cached, ok := r.loadPoint(k); ok {
		source = "disk"
		if r.resumed(k) {
			// A prior run's journal marked this point done and the disk
			// cache still holds it: the resumed run skips the computation.
			source = "resume"
			r.Metrics.Counter("experiments.resume.skipped").Inc()
		}
		return cached, nil
	}
	if r.Shared != nil {
		// Cross-runner dedupe: coalesce with any other runner's in-flight
		// computation of this content-addressed key (see shared.go).
		res, source, attempts, err = r.Shared.compute(r, p, k)
		return res, err
	}
	res, source, attempts, err = r.computePoint(p, k)
	return res, err
}

// computePoint routes one cache-missed point to its executor: the
// supervisor or the in-process resilience stack, reporting which as the
// journal source.
func (r *Runner) computePoint(p Point, k pointKey) (*core.Result, string, int, error) {
	if r.Supervisor != nil {
		res, attempts, err := r.computeIsolated(p, k)
		return res, "isolated", attempts, err
	}
	res, attempts, err := r.computeResilient(p, k)
	return res, "computed", attempts, err
}

// observePoint records one completed point in the registry and journal.
func (r *Runner) observePoint(p Point, source string, d time.Duration, attempts int, err error) {
	if r.Metrics != nil {
		if source == "disk" || source == "resume" {
			r.Metrics.Counter("experiments.diskcache.hits").Inc()
		} else if r.CacheDir != "" {
			r.Metrics.Counter("experiments.diskcache.misses").Inc()
		}
		r.Metrics.Counter("experiments.points.completed").Inc()
		if err != nil {
			r.Metrics.Counter("experiments.points.errors").Inc()
		}
		r.Metrics.Histogram("experiments.point.seconds").Observe(d.Seconds())
	}
	if r.Journal != nil || r.OnPoint != nil {
		ev := PointEvent{
			Bench:      p.Bench.Name,
			Flavor:     p.Flavor.String(),
			Collector:  p.Collector,
			HeapMB:     p.HeapMB,
			Platform:   p.Platform.Name,
			S10:        p.S10,
			FanOff:     p.FanOff,
			Outcome:    "ok",
			Source:     source,
			DurationMS: float64(d) / float64(time.Millisecond),
			Attempts:   attempts,
		}
		if err != nil {
			ev.Outcome = "error"
			ev.Error = err.Error()
		}
		_ = r.Journal.Record(ev)
		if r.OnPoint != nil {
			r.OnPoint(p, ev)
		}
	}
}
