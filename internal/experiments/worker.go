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

// Executor mode: the experiments binary serving points to a supervisor,
// either as a local worker (`experiments -worker`, on its stdin/stdout) or
// as a remote node (`experiments -serve-node`, over TCP). Both speak the
// same node dialect (supervisor.ServeConn). Each spec is rebuilt into the
// point and an inner Runner, which computes through the attempt path the
// in-process run uses (computeResilient: transient-fault retries, panic
// isolation). The result payload is the gob of a workerResult — whose
// Outcome is the same core.Outcome the disk cache persists — so the
// supervisor's side consumes an executor's result exactly as it consumes a
// cache hit, which is what makes executor and in-process runs
// byte-identical at the same seed.

// workerResult is the payload of a task-result frame: either a completed
// point (OK with its Outcome) or the attempt chain's terminal error,
// rendered to a string — the same string the in-process path would have put
// in the fault report, so degraded cells read identically either way.
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
	inner, p, perr := rebuild(spec)
	if perr == nil {
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
	return encodePoint(inner, p, perr)
}

// killSelf signals the worker's own process and never returns.
func killSelf(sig syscall.Signal) {
	_ = syscall.Kill(os.Getpid(), sig)
	for {
		time.Sleep(time.Hour)
	}
}

// HandleSpec is a remote node's point handler: it reconstructs the point
// and computes through the same attempt path as every other route,
// returning the workerResult gob the supervisor decodes. Errors encode into
// the payload rather than escaping — a node answers every task it accepts.
func HandleSpec(spec pointproto.Spec) []byte {
	inner, p, perr := rebuild(spec)
	return encodePoint(inner, p, perr)
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

// specResult computes one rebuilt spec through the attempt path,
// folding the outcome — completed point, point failure, or a rebuild
// error — into the workerResult shape both transports carry.
func specResult(inner *Runner, p Point, perr error) workerResult {
	if perr != nil {
		return workerResult{Err: perr.Error(), Attempts: 1}
	}
	res, attempts, err := inner.computeResilient(p, p.ID())
	if err != nil {
		return workerResult{Err: err.Error(), Attempts: attempts}
	}
	return workerResult{OK: true, Attempts: attempts, Outcome: res.Outcome}
}

// encodePoint computes a rebuilt spec and gob-encodes the result payload,
// degrading an unencodable result to an encoded error so the supervisor
// always gets a decodable payload.
func encodePoint(inner *Runner, p Point, perr error) []byte {
	wr := specResult(inner, p, perr)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wr); err != nil {
		wr = workerResult{Err: fmt.Sprintf("experiments: worker encoding result: %v", err), Attempts: wr.Attempts}
		buf.Reset()
		// Unreachable for the types involved; an empty payload fails to
		// decode supervisor-side, a protocol crash, which is the right
		// signal.
		_ = gob.NewEncoder(&buf).Encode(&wr)
	}
	return buf.Bytes()
}

// rebuild reconstructs the characterization point and an inner Runner from
// a wire spec. The inner runner carries exactly the settings that determine
// a point's bytes (seed, quick, fault plan) and none of the supervision —
// timeouts, cancellation, and kill are the supervisor's job.
func rebuild(spec pointproto.Spec) (*Runner, Point, error) {
	bench, err := workloads.ByName(spec.Bench)
	if err != nil {
		return nil, Point{}, fmt.Errorf("experiments: worker: %w", err)
	}
	flavor, ok := flavorByName(spec.Flavor)
	if !ok {
		return nil, Point{}, fmt.Errorf("experiments: worker: unknown VM flavor %q", spec.Flavor)
	}
	plat, err := platform.ByName(spec.Platform)
	if err != nil {
		return nil, Point{}, fmt.Errorf("experiments: worker: %w", err)
	}
	plan, err := faultinject.Parse(spec.Faults)
	if err != nil {
		return nil, Point{}, fmt.Errorf("experiments: worker: %w", err)
	}
	inner := NewRunner(io.Discard)
	inner.Quick = spec.Quick
	inner.Seed = spec.Seed
	inner.Faults = plan
	p := Point{
		Bench:     bench,
		Flavor:    flavor,
		Collector: spec.Collector,
		HeapMB:    spec.HeapMB,
		Platform:  plat,
		S10:       spec.S10,
		FanOff:    spec.FanOff,
	}
	if err := p.validate(); err != nil {
		return nil, Point{}, err
	}
	return inner, p, nil
}
