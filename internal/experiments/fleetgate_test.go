package experiments

import (
	"context"
	"errors"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jvmpower/internal/metrics"
	"jvmpower/internal/pointproto"
	"jvmpower/internal/supervisor"
)

// The cross-node determinism gate: a figure rendered across a fleet of
// loopback nodes — under shuffled completion order and an injected
// disconnect — must be byte-identical to the single-process run at the
// same seed. This is the acceptance test for the whole distributed path:
// if any part of the supervisor (scheduling, requeue, result decode)
// leaked nondeterminism into figure output, these bytes would differ.

// listenLoopback opens a loopback listener for a test fleet node.
func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// startFleetNode runs supervisor.Serve on ln until test cleanup.
func startFleetNode(t *testing.T, ln net.Listener, cfg supervisor.ServeConfig) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = supervisor.Serve(ctx, ln, cfg)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// dropOnceListener makes a node's FIRST accepted connection die after a
// budget of TaskResult frames — the injected-disconnect half of the gate.
// Reconnections are clean, so every requeued task completes on the retry.
type dropOnceListener struct {
	net.Listener
	mu    sync.Mutex
	taken bool
	limit int
}

func (l *dropOnceListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	first := !l.taken
	l.taken = true
	l.mu.Unlock()
	if first {
		return &dropAfterConn{Conn: conn, limit: l.limit}, nil
	}
	return conn, nil
}

// dropAfterConn counts TaskResult frames by first byte — valid because
// WriteFrame emits each frame in a single Write — and severs the connection
// when the budget is spent. The severed write's task is still in flight
// supervisor-side, so the disconnect always forces at least one requeue.
type dropAfterConn struct {
	net.Conn
	mu      sync.Mutex
	results int
	limit   int
}

func (c *dropAfterConn) Write(b []byte) (int, error) {
	if len(b) > 0 && b[0] == byte(pointproto.MsgTaskResult) {
		c.mu.Lock()
		c.results++
		over := c.results > c.limit
		c.mu.Unlock()
		if over {
			c.Conn.Close()
			return 0, errors.New("injected disconnect")
		}
	}
	return c.Conn.Write(b)
}

// TestFleetByteIdentical renders Figures 6 and 7 across three loopback
// nodes — one whose transport drops mid-campaign, one slow enough to
// shuffle completion order, one fast — and requires the output
// byte-identical to the in-process run, with the metrics proving each
// chaos ingredient actually fired.
func TestFleetByteIdentical(t *testing.T) {
	var inproc strings.Builder
	ref := quickRunner(&inproc)
	for _, fig := range []string{"fig6", "fig7"} {
		if err := ref.RunFigure(fig); err != nil {
			t.Fatal(err)
		}
	}

	// Node C, listed first so it starts first and takes the first points:
	// a healthy handler behind a transport that disconnects after two
	// results; it reconnects clean and finishes what it restarts.
	lnC := listenLoopback(t)
	startFleetNode(t, &dropOnceListener{Listener: lnC, limit: 2},
		supervisor.ServeConfig{Name: "C", Capacity: 2, Handler: HandleSpec, Stderr: io.Discard})
	// Node B: slow with capacity 1, so completion order shuffles.
	lnB := listenLoopback(t)
	startFleetNode(t, lnB, supervisor.ServeConfig{
		Name: "B", Capacity: 1,
		Handler: func(spec pointproto.Spec) []byte {
			time.Sleep(10 * time.Millisecond)
			return HandleSpec(spec)
		},
		Stderr: io.Discard,
	})
	// Node A: computes immediately.
	lnA := listenLoopback(t)
	startFleetNode(t, lnA, supervisor.ServeConfig{Name: "A", Capacity: 2, Handler: HandleSpec, Stderr: io.Discard})

	var out strings.Builder
	r := quickRunner(&out)
	r.Metrics = metrics.NewRegistry()
	sup, err := supervisor.New(supervisor.Config{
		Nodes:   []string{lnC.Addr().String(), lnB.Addr().String(), lnA.Addr().String()},
		Metrics: r.Metrics,
		Stderr:  io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)
	r.Supervisor = sup
	for _, fig := range []string{"fig6", "fig7"} {
		if err := r.RunFigure(fig); err != nil {
			t.Fatal(err)
		}
	}

	if out.String() != inproc.String() {
		t.Fatal("fleet campaign output differs from the in-process run")
	}
	if n := len(r.Faulted()); n != 0 {
		t.Fatalf("fleet campaign degraded %d points: %+v", n, r.Faulted())
	}
	if v := r.Metrics.Counter("supervisor.tasks.ok").Value(); v == 0 {
		t.Fatal("no points computed through the fleet")
	}
	for _, name := range []string{"supervisor.requeues", "supervisor.crashes.disconnect"} {
		if v := r.Metrics.Counter(name).Value(); v == 0 {
			t.Fatalf("%s = 0: the gate's chaos did not fire", name)
		}
	}
}

// TestFleetResumeByteIdentical pins the fleet resume story: rerunning a
// fleet campaign against its disk cache, on a fresh fleet or in a single
// process, is byte-identical, serves every point the campaign journaled
// ok from disk, and executes nothing remotely.
func TestFleetResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "points")
	journalPath := filepath.Join(dir, "fleet.jsonl")

	ln := listenLoopback(t)
	startFleetNode(t, ln, supervisor.ServeConfig{Name: "n0", Handler: HandleSpec, Stderr: io.Discard})

	var out1 strings.Builder
	r1 := quickRunner(&out1)
	r1.CacheDir = cacheDir
	r1.Metrics = metrics.NewRegistry()
	j1, err := metrics.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	r1.Journal = j1
	sup1, err := supervisor.New(supervisor.Config{Nodes: []string{ln.Addr().String()}, Metrics: r1.Metrics, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	r1.Supervisor = sup1
	if err := r1.RunFigure("fig6"); err != nil {
		t.Fatal(err)
	}
	sup1.Close()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	points, _ := readJournal(t, journalPath)
	ok := 0
	for _, ev := range points {
		if ev.Outcome == "ok" {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("fleet campaign journaled no completed point")
	}

	// Fleet rerun: a fresh node counting executions — there must be none.
	var executed atomic.Int64
	ln2 := listenLoopback(t)
	startFleetNode(t, ln2, supervisor.ServeConfig{
		Name: "n1",
		Handler: func(spec pointproto.Spec) []byte {
			executed.Add(1)
			return HandleSpec(spec)
		},
		Stderr: io.Discard,
	})
	var out2 strings.Builder
	r2 := quickRunner(&out2)
	r2.CacheDir = cacheDir
	r2.Metrics = metrics.NewRegistry()
	rerunPath := filepath.Join(dir, "rerun.jsonl")
	j2, err := metrics.OpenJournal(rerunPath)
	if err != nil {
		t.Fatal(err)
	}
	r2.Journal = j2
	sup2, err := supervisor.New(supervisor.Config{Nodes: []string{ln2.Addr().String()}, Metrics: r2.Metrics, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup2.Close)
	r2.Supervisor = sup2
	if err := r2.RunFigure("fig6"); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Single-process rerun against the same cache.
	var out3 strings.Builder
	r3 := quickRunner(&out3)
	r3.CacheDir = cacheDir
	r3.Metrics = metrics.NewRegistry()
	if err := r3.RunFigure("fig6"); err != nil {
		t.Fatal(err)
	}

	if out2.String() != out1.String() {
		t.Fatal("fleet rerun output differs from the original fleet campaign")
	}
	if out3.String() != out1.String() {
		t.Fatal("single-process rerun output differs from the fleet campaign")
	}
	if v := executed.Load(); v != 0 {
		t.Fatalf("fleet rerun recomputed %d points remotely", v)
	}
	for _, r := range []*Runner{r2, r3} {
		hits := r.Metrics.Counter("experiments.diskcache.hits").Value()
		misses := r.Metrics.Counter("experiments.diskcache.misses").Value()
		if hits != int64(ok) || misses != 0 {
			t.Fatalf("rerun: %d disk hits and %d misses, campaign journaled %d ok points", hits, misses, ok)
		}
	}
	rerun, _ := readJournal(t, rerunPath)
	if len(rerun) != ok {
		t.Fatalf("fleet rerun journaled %d points, campaign %d", len(rerun), ok)
	}
	for _, ev := range rerun {
		if ev.Source != "disk" {
			t.Fatalf("fleet rerun journaled %s with source %q, want \"disk\"", ev.PointID, ev.Source)
		}
	}
}
