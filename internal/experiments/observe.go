package experiments

import "time"

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
//	singleflight.hits / singleflight.misses   counter  group members joining
//	                                                   an existing flight vs
//	                                                   owning a new one
//	diskcache.hits / diskcache.misses         counter  persistent-cache
//	                                                   split (both present,
//	                                                   zero or not, when
//	                                                   -cache is enabled)
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
//
// A rerun with the same -cache is the resume: diskcache.hits counts the
// points it served instead of recomputing.

// PointEvent is one run-journal record: the point's identity, where its
// result came from, how long it took, and how it ended.
type PointEvent struct {
	PointID
	Outcome string `json:"outcome"` // "ok" or "error"
	// Source is where the result came from: "computed" (in-process),
	// "isolated" (a supervised executor, local worker or remote node, one
	// record per member of the group task), "shared", or "disk". Older journals also say "fleet" for a remote
	// node, "resume" for a point a journal-replay resume served from disk,
	// and "merged" in a merged shard journal; none of the three is written
	// any more.
	Source string `json:"source"`
	// DurationMS is the point's wall time up to its record. The members
	// of a group computed together, in one lockstep run or one executor
	// task (see settle), share it, so a member's duration is the whole
	// step's wall time so far: the points' spans then cover the step, and
	// figure time outside them is a true self time.
	DurationMS float64 `json:"duration_ms"`
	Error      string  `json:"error,omitempty"`
	// Attempts counts characterization attempts, the first one and its
	// retries; omitted for cache-served points.
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

// observePoint records one completed point in the registry and journal.
func (r *Runner) observePoint(p Point, source string, d time.Duration, attempts int, err error) {
	if r.Metrics != nil {
		if r.CacheDir != "" {
			// Both exist from the first point on, so a fully warm rerun
			// reports misses = 0 rather than no misses line at all.
			hits := r.Metrics.Counter("experiments.diskcache.hits")
			misses := r.Metrics.Counter("experiments.diskcache.misses")
			if source == "disk" {
				hits.Inc()
			} else {
				misses.Inc()
			}
		}
		r.Metrics.Counter("experiments.points.completed").Inc()
		if err != nil {
			r.Metrics.Counter("experiments.points.errors").Inc()
		}
		r.Metrics.Histogram("experiments.point.seconds").Observe(d.Seconds())
	}
	if r.Journal != nil || r.OnPoint != nil {
		ev := PointEvent{
			PointID:    p.ID(),
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
