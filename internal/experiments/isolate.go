package experiments

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"

	"jvmpower/internal/core"
	"jvmpower/internal/pointproto"
	"jvmpower/internal/supervisor"
)

// Executor-computed points: the supervisor's half of worker and node mode.
// When Runner.Supervisor is set, runPoint routes every computed point
// through computeIsolated instead of computeResilient — the spec crosses
// the pointproto boundary to a local worker subprocess or a remote node,
// and the result comes back as the same cachedPoint shape the disk cache
// serves, so figures cannot tell the difference (the byte-identical
// guarantee the isolation and fleet gates pin).
//
// What a local worker buys over the in-process guard: a point that exceeds
// its budget or wedges is SIGKILLed and its CPU and heap actually come
// back (the in-process guard can only abandon the goroutine and let the
// cancellation poll wind it down); a point that OOMs takes a worker, not
// the campaign. Executor deaths surface as *supervisor.CrashError, which
// is what feeds the per-figure circuit breakers.

// defaultBreakerThreshold is the consecutive-executor-death count that
// trips a figure's circuit breaker when Runner.BreakerThreshold is unset.
const defaultBreakerThreshold = 3

// NodeEvent is the journal record of an executor lifecycle transition.
// Distinguished from PointEvents by the event field ("node"); LoadResume
// ignores it. The "up" detail carries the executor's benchstat-style
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

// computeIsolated produces one point's result on an executor. The result
// is persisted to the disk cache exactly as computeResilient would have,
// so executor and in-process campaigns interoperate through the same
// cache. Executor deaths come back as *supervisor.CrashError; an executor
// that stayed alive and reported a point failure comes back as a plain
// error carrying the same string the in-process path would have produced.
func (r *Runner) computeIsolated(p Point, k pointKey) (*core.Result, int, error) {
	ctx := r.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	payload, err := r.Supervisor.Run(ctx, r.wireSpec(p))
	if err != nil {
		if ce, ok := supervisor.AsCrash(err); ok {
			return nil, 0, fmt.Errorf("experiments: %s: %w", p, ce)
		}
		return nil, 0, err
	}
	res, attempts, err := decodePointPayload(p, payload)
	if err != nil {
		return nil, attempts, err
	}
	r.storePoint(k, res)
	return res, attempts, nil
}

// wireSpec serializes a point plus every runner setting that determines
// its bytes — the spec every executor receives.
func (r *Runner) wireSpec(p Point) pointproto.Spec {
	return pointproto.Spec{
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
		Reps:      r.Reps,
		Retries:   r.Retries,
	}
}

// decodePointPayload decodes an executor's result payload. An undecodable
// payload is the protocol violation it is — a *supervisor.CrashError, so
// it counts as a worker death; a decoded failure is a plain error carrying
// the same string the in-process path would have produced.
func decodePointPayload(p Point, payload []byte) (*core.Result, int, error) {
	var wr workerResult
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wr); err != nil {
		return nil, 0, fmt.Errorf("experiments: %s: %w", p,
			&supervisor.CrashError{Kind: supervisor.CrashProtocol, Detail: "undecodable result payload: " + err.Error()})
	}
	if !wr.OK {
		return nil, wr.Attempts, errors.New(wr.Err)
	}
	return &core.Result{
		Decomposition: wr.Point.Decomposition,
		GCStats:       wr.Point.GCStats,
		LoadedClasses: wr.Point.LoadedClasses,
		FaultCounts:   wr.Point.FaultCounts,
	}, wr.Attempts, nil
}

// breaker returns the figure's circuit breaker, creating it on first use.
// Breakers exist only with a Supervisor (executor deaths are the event
// they count); without one this returns nil and the nil-safe breaker API
// keeps the in-process path untouched.
func (r *Runner) breaker(fig string) *supervisor.Breaker {
	if r.Supervisor == nil {
		return nil
	}
	threshold := r.BreakerThreshold
	if threshold == 0 {
		threshold = defaultBreakerThreshold
	}
	if threshold < 0 {
		threshold = 0 // explicit opt-out: a breaker that never trips
	}
	r.breakerMu.Lock()
	defer r.breakerMu.Unlock()
	if r.breakers == nil {
		r.breakers = make(map[string]*supervisor.Breaker)
	}
	b, ok := r.breakers[fig]
	if !ok {
		b = supervisor.NewBreaker(threshold)
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
		fig, r.breakerThresholdEffective())
	if r.Journal != nil {
		_ = r.Journal.Record(FaultEvent{
			Event:  "breaker",
			Figure: fig,
			Error:  fmt.Sprintf("circuit breaker open after %d consecutive worker deaths", r.breakerThresholdEffective()),
		})
	}
}

func (r *Runner) breakerThresholdEffective() int {
	if r.BreakerThreshold > 0 {
		return r.BreakerThreshold
	}
	return defaultBreakerThreshold
}
