package experiments

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"jvmpower/internal/core"
	"jvmpower/internal/pointproto"
	"jvmpower/internal/supervisor"
)

// Executor-computed groups: the supervisor's half of worker and node mode.
// When Runner.Supervisor is set, settle sends every group it computes
// through computeIsolated instead of attempt — the group's spec crosses
// the pointproto boundary as one task to a local worker subprocess or a
// remote node, which runs attempt on it, and each member's result comes
// back as the same core.Outcome the disk cache serves, so figures cannot
// tell the difference (the byte-identical guarantee the isolation and
// fleet gates pin).
//
// What a local worker buys over the in-process path: a point that wedges
// is SIGKILLed and its CPU and heap actually come back (in-process, only
// the VM's own cancellation poll can stop it); a point that OOMs takes a
// worker, not the campaign. Executor deaths surface as
// *supervisor.CrashError, which is what feeds the per-figure circuit
// breakers.

// NodeEvent is the journal record of an executor lifecycle transition.
// Distinguished from PointEvents by the event field ("node"), so a reader
// counting point records skips it. The "up" detail carries the executor's benchstat-style
// environment capture — per the VM-warmup literature, results from
// different machines are only comparable with this provenance recorded
// next to them.
type NodeEvent struct {
	Event  string `json:"event"` // "node"
	Node   string `json:"node"`
	State  string `json:"state"` // "up", "down", "breaker-open", "draining", or "drained"
	Detail string `json:"detail,omitempty"`
}

// ObserveNodeEvent journals one executor lifecycle transition;
// cmd/experiments wires it into the supervisor's OnNodeEvent hook. It
// writes nothing to Runner.Out — executor lifecycle is provenance, and
// figure output must stay byte-identical to the in-process run (the
// supervisor's Stderr carries the human-readable log line).
func (r *Runner) ObserveNodeEvent(node, event, detail string) {
	if r.Journal != nil {
		_ = r.Journal.Record(NodeEvent{Event: "node", Node: node, State: event, Detail: detail})
	}
}

// computeIsolated computes the group pts on an executor as one task and
// gives each member its result or error. An executor death, or a payload
// that does not decode to one result per member, fails every member with
// a *supervisor.CrashError; an executor that stayed alive and reported a
// member's failure gives that member a plain error carrying the string the
// in-process path would have produced.
func (r *Runner) computeIsolated(pts []Point) []computed {
	out := make([]computed, len(pts))
	payload, err := r.Supervisor.Run(r.runCtx(), r.wireSpec(pts))
	var wrs []workerResult
	if err == nil {
		derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wrs)
		if derr == nil && len(wrs) != len(pts) {
			derr = fmt.Errorf("%d results for %d members", len(wrs), len(pts))
		}
		if derr != nil {
			err = &supervisor.CrashError{Kind: supervisor.CrashProtocol, Detail: "undecodable result payload: " + derr.Error()}
		}
	}
	for i, p := range pts {
		switch ce, crashed := supervisor.AsCrash(err); {
		case crashed:
			out[i].err = fmt.Errorf("experiments: %s: %w", p, ce)
		case err != nil:
			out[i].err = err
		case !wrs[i].OK:
			out[i] = computed{err: errors.New(wrs[i].Err), attempts: wrs[i].Attempts}
		default:
			out[i] = computed{res: &core.Result{Outcome: wrs[i].Outcome}, attempts: wrs[i].Attempts}
		}
	}
	return out
}

// wireSpec serializes a group plus every runner setting that determines
// its bytes — the spec every executor receives.
func (r *Runner) wireSpec(pts []Point) pointproto.Spec {
	p := pts[0]
	spec := pointproto.Spec{
		Bench:     p.Bench.Name,
		Flavor:    p.Flavor.String(),
		Collector: p.Collector,
		HeapMB:    p.HeapMB,
		Platform:  p.Platform.Name,
		S10:       p.S10,
		FanOff:    p.FanOff,
		Seed:      r.Seed,
		Quick:     r.Quick,
		Faults:    r.Faults.String(),
	}
	for _, q := range pts[1:] {
		spec.MoreHeapsMB = append(spec.MoreHeapsMB, q.HeapMB)
	}
	return spec
}

// breaker returns the figure's circuit breaker, creating it on first use.
// Breakers exist only with a Supervisor (executor deaths are the event
// they count); without one this returns nil and the nil-safe breaker API
// keeps the in-process path untouched.
func (r *Runner) breaker(fig string) *supervisor.Breaker {
	if r.Supervisor == nil {
		return nil
	}
	r.breakerMu.Lock()
	defer r.breakerMu.Unlock()
	if r.breakers == nil {
		r.breakers = make(map[string]*supervisor.Breaker)
	}
	b, ok := r.breakers[fig]
	if !ok {
		b = new(supervisor.Breaker)
		r.breakers[fig] = b
	}
	return b
}

// BreakerTripped reports whether a figure's breaker has opened (for tests
// and diagnostics).
func (r *Runner) BreakerTripped(fig string) bool {
	r.breakerMu.Lock()
	b := r.breakers[fig]
	r.breakerMu.Unlock()
	return b.Tripped()
}

// observeBreaker feeds one cell outcome to the figure's breaker: only a
// worker death (a *supervisor.CrashError anywhere in the chain) counts as
// a failure, and any completed dispatch — success or an ordinary point
// failure from a live worker — resets the count. The trip transition is
// logged once, with its own metric and journal event.
func (r *Runner) observeBreaker(b *supervisor.Breaker, fig string, err error) {
	_, isCrash := supervisor.AsCrash(err)
	if !b.Record(isCrash) {
		return
	}
	r.Metrics.Counter("experiments.breaker.tripped").Inc()
	r.printf("  [%s] circuit breaker open: %d consecutive worker deaths; remaining cells degrade\n",
		fig, supervisor.TripThreshold)
	if r.Journal != nil {
		_ = r.Journal.Record(FaultEvent{
			Event:  "breaker",
			Figure: fig,
			Error:  fmt.Sprintf("circuit breaker open after %d consecutive worker deaths", supervisor.TripThreshold),
		})
	}
}
