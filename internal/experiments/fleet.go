package experiments

import (
	"context"
	"fmt"
	"io"
	"net"

	"jvmpower/internal/core"
	"jvmpower/internal/fleet"
	"jvmpower/internal/pointproto"
	"jvmpower/internal/supervisor"
)

// Fleet-distributed point execution: the coordinator half of the socket
// transport. When Runner.Fleet is set, runPoint routes every computed
// point to a remote executor node; the node computes through the exact
// resilience stack the in-process path uses (HandleSpec below is the node
// side) and the result payload is the same workerResult gob a pipe worker
// returns — so in-process, isolated, and fleet campaigns are byte-identical
// at the same seed, which is what the cross-node determinism gate pins.
//
// Sharding: each point's shard key is figure|sweep-group, so a figure's
// heap sweep prefers one node; the coordinator steals across nodes under
// skew. The dedupe key is the point's content-addressed disk-cache key —
// the same identity the disk cache uses — so the fleet never executes one
// point twice within a campaign.

// FleetNodeEvent is the journal record of a node lifecycle transition.
// Distinguished from PointEvents by the event field ("node"); LoadResume
// ignores it. The "up" detail carries the node's benchstat-style
// environment capture — per the VM-warmup literature, results from
// different machines are only comparable with this provenance recorded
// next to them.
type FleetNodeEvent struct {
	Event  string `json:"event"` // "node"
	Node   string `json:"node"`
	State  string `json:"state"` // "up", "down", "breaker-open", "draining", or "drained"
	Detail string `json:"detail,omitempty"`
}

// ObserveNodeEvent journals one fleet node lifecycle transition;
// cmd/experiments wires it into the coordinator's OnNodeEvent hook. It
// writes nothing to Runner.Out — node lifecycle is provenance, and figure
// output must stay byte-identical to the in-process run (the coordinator's
// Stderr carries the human-readable log line).
func (r *Runner) ObserveNodeEvent(node, event, detail string) {
	r.Metrics.Counter("experiments.fleet.node_events").Inc()
	if r.Journal != nil {
		_ = r.Journal.Record(FleetNodeEvent{Event: "node", Node: node, State: event, Detail: detail})
	}
}

// sweepGroupKey is a point's heap-sweep identity: every pointKey field
// except the heap size. Folded into the fleet shard key, it places a
// figure's heap sweep on one node.
func sweepGroupKey(k pointKey) string {
	return fmt.Sprintf("%s|%d|%s|%s|%t|%t",
		k.bench, k.flavor, k.collector, k.platform, k.s10, k.fanOff)
}

// computeFleet produces one point's result on a remote fleet node. The
// result is persisted to the disk cache exactly as the other paths would,
// so fleet and local campaigns interoperate through the same cache. Node
// deaths come back as *supervisor.CrashError (disconnect, partition,
// protocol, spawn, timeout), which is what feeds the per-figure breakers.
func (r *Runner) computeFleet(p Point, k pointKey) (*core.Result, int, error) {
	ctx := r.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	r.figMu.Lock()
	fig := r.activeFig
	r.figMu.Unlock()
	shard := fig + "|" + sweepGroupKey(k)
	payload, err := r.Fleet.Run(ctx, shard, r.diskKey(k), r.wireSpec(p))
	if err != nil {
		if ce, ok := supervisor.AsCrash(err); ok {
			r.Metrics.Counter("experiments.fleet.crashes").Inc()
			return nil, 0, fmt.Errorf("experiments: %s: %w", p, ce)
		}
		return nil, 0, err
	}
	res, attempts, err := decodePointPayload(p, payload)
	if err != nil {
		return nil, attempts, err
	}
	r.storePoint(k, res)
	r.Metrics.Counter("experiments.fleet.points").Inc()
	return res, attempts, nil
}

// HandleSpec is the fleet node's point handler: it reconstructs the point
// and computes through the same resilience stack as every other path,
// returning the workerResult gob the coordinator decodes. Errors encode
// into the payload rather than escaping — a node answers every task it
// accepts (transport-level chaos is injected below this layer).
func HandleSpec(spec pointproto.Spec) []byte {
	inner, p, perr := rebuild(spec)
	payload, err := encodeWorkerResult(specResult(inner, p, perr))
	if err != nil {
		// Unreachable for the types involved; an empty payload classifies
		// coordinator-side as a protocol crash, which is the right signal.
		return nil
	}
	return payload
}

// ServeNode runs one fleet executor node on addr until ctx is cancelled or
// drain closes, printing the resolved listen address (addr may carry port
// 0) so scripts can scrape it. Closing drain (cmd/experiments wires the
// first SIGTERM/SIGINT to it) is the graceful exit: the node finishes its
// in-flight points, announces goodbye, and departs without the coordinator
// counting a disconnect crash; cancelling ctx aborts outright. This is
// what `experiments -serve-node` runs.
func ServeNode(ctx context.Context, addr string, capacity int, drain <-chan struct{}, logw io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("experiments: fleet node: %w", err)
	}
	fmt.Fprintf(logw, "experiments: fleet node listening on %s\n", ln.Addr())
	err = fleet.Serve(ctx, ln, fleet.ServeConfig{
		Capacity: capacity,
		Handler:  HandleSpec,
		Stderr:   logw,
		Drain:    drain,
	})
	if err == context.Canceled {
		return nil
	}
	return err
}
