package experiments

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"time"

	"jvmpower/internal/core"
	"jvmpower/internal/faultinject"
	"jvmpower/internal/platform"
	"jvmpower/internal/pointproto"
	"jvmpower/internal/supervisor"
	"jvmpower/internal/workloads"
)

// Executor mode: the experiments binary serving groups to a supervisor,
// either as a local worker (`experiments -worker`, on its stdin/stdout) or
// as a remote node (`experiments -serve-node`, over TCP). Both speak the
// same node dialect (supervisor.ServeConn). Each spec is rebuilt into its
// group of points (see sweepJobs) and an inner Runner, which computes it
// through attempt, the compute step the in-process run uses (lockstep
// run, transient-fault retries, panic isolation). The result payload is
// the gob of one workerResult per member — whose Outcome is the same
// core.Outcome the disk cache persists — so the supervisor's side
// consumes an executor's result exactly as it consumes a cache hit, which
// is what makes executor and in-process runs byte-identical at the same
// seed.

// workerResult is one member's entry in a task-result payload: either a
// completed point (OK with its Outcome) or its terminal error, rendered to
// a string — the same string the in-process path would have put in the
// fault report, so degraded cells read identically either way.
type workerResult struct {
	OK       bool
	Err      string
	Attempts int
	Outcome  core.Outcome
}

// ServeWorker serves points to the parent's supervisor over the worker's
// stdin and stdout, one at a time, until the parent closes stdin (clean
// shutdown) or a write fails (the parent died; the worker has no reason to
// outlive it).
func ServeWorker(in io.Reader, out io.WriteCloser) error {
	return supervisor.ServeConn(stdio{in, out}, supervisor.ServeConfig{Capacity: 1, Handler: workerHandle})
}

// stdio is a worker's connection to its supervisor. Closing it closes
// stdout, which the supervisor reads as the worker leaving.
type stdio struct {
	io.Reader
	io.WriteCloser
}

// workerHandle is HandleSpec plus the worker-only fault directives, keyed
// by the same canonical point identity every other directive targets.
// They simulate the two deaths only a local worker can contain, for the
// supervisor's own acceptance tests; a remote node never honours them.
func workerHandle(spec pointproto.Spec) []byte {
	inner, pts, perr := rebuild(spec)
	for _, p := range pts {
		switch key := p.String(); {
		case inner.Faults.PointHangs(key):
			// Wedge: stop the whole process, heartbeat goroutine included,
			// so the supervisor's watchdog must kill it.
			killSelf(syscall.SIGSTOP)
		case inner.Faults.PointKills(key):
			// The kernel OOM killer's exact signature: a SIGKILL the
			// supervisor did not send.
			killSelf(syscall.SIGKILL)
		}
	}
	return encodeResults(spec, inner, pts, perr)
}

// killSelf signals the worker's own process and never returns.
func killSelf(sig syscall.Signal) {
	_ = syscall.Kill(os.Getpid(), sig)
	for {
		time.Sleep(time.Hour)
	}
}

// HandleSpec is a remote node's task handler: it rebuilds the spec's group
// and computes it through attempt, like every other route, returning the
// payload the supervisor decodes. Errors encode into the payload rather
// than escaping — a node answers every task it accepts.
func HandleSpec(spec pointproto.Spec) []byte {
	inner, pts, perr := rebuild(spec)
	return encodeResults(spec, inner, pts, perr)
}

// ServeNode runs one remote executor node on addr until ctx is cancelled
// or drain closes, printing the resolved listen address (addr may carry
// port 0) so scripts can scrape it. Closing drain (cmd/experiments wires
// the first SIGTERM/SIGINT to it) is the graceful exit: the node finishes
// its in-flight points, announces goodbye, and departs without the
// supervisor counting a disconnect crash; cancelling ctx aborts outright.
// This is what `experiments -serve-node` runs.
func ServeNode(ctx context.Context, addr string, capacity int, drain <-chan struct{}, logw io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("experiments: fleet node: %w", err)
	}
	fmt.Fprintf(logw, "experiments: fleet node listening on %s\n", ln.Addr())
	err = supervisor.Serve(ctx, ln, supervisor.ServeConfig{
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

// encodeResults computes a rebuilt spec's group through attempt and
// gob-encodes one workerResult per heap of the spec: each member's result
// or error, or the rebuild error for every heap. An unencodable result
// degrades to encoded errors, so the supervisor always gets a decodable
// payload.
func encodeResults(spec pointproto.Spec, inner *Runner, pts []Point, perr error) []byte {
	out := make([]computed, 1+len(spec.MoreHeapsMB))
	if perr == nil {
		out = inner.attempt(pts)
	}
	wrs := make([]workerResult, len(out))
	for i, c := range out {
		switch {
		case perr != nil:
			wrs[i] = workerResult{Err: perr.Error(), Attempts: 1}
		case c.err != nil:
			wrs[i] = workerResult{Err: c.err.Error(), Attempts: c.attempts}
		default:
			wrs[i] = workerResult{OK: true, Attempts: c.attempts, Outcome: c.res.Outcome}
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wrs); err != nil {
		for i := range wrs {
			wrs[i] = workerResult{Err: fmt.Sprintf("experiments: worker encoding result: %v", err), Attempts: wrs[i].Attempts}
		}
		buf.Reset()
		// Unreachable for the types involved; an empty payload fails to
		// decode supervisor-side, a protocol crash, which is the right
		// signal.
		_ = gob.NewEncoder(&buf).Encode(wrs)
	}
	return buf.Bytes()
}

// rebuild reconstructs a spec's group of points and an inner Runner. The
// inner runner carries exactly the settings that determine a point's bytes
// (seed, quick, fault plan) and none of the supervision — timeouts,
// cancellation, and kill are the supervisor's job.
func rebuild(spec pointproto.Spec) (*Runner, []Point, error) {
	bench, err := workloads.ByName(spec.Bench)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: worker: %w", err)
	}
	flavor, ok := flavorByName(spec.Flavor)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: worker: unknown VM flavor %q", spec.Flavor)
	}
	plat, err := platform.ByName(spec.Platform)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: worker: %w", err)
	}
	plan, err := faultinject.Parse(spec.Faults)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: worker: %w", err)
	}
	inner := NewRunner(io.Discard)
	inner.Quick = spec.Quick
	inner.Seed = spec.Seed
	inner.Faults = plan
	var pts []Point
	for _, h := range append([]int{spec.HeapMB}, spec.MoreHeapsMB...) {
		p := Point{
			Bench:     bench,
			Flavor:    flavor,
			Collector: spec.Collector,
			HeapMB:    h,
			Platform:  plat,
			S10:       spec.S10,
			FanOff:    spec.FanOff,
		}
		if err := p.validate(); err != nil {
			return nil, nil, err
		}
		pts = append(pts, p)
	}
	return inner, pts, nil
}
