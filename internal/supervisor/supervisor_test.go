package supervisor

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"jvmpower/internal/metrics"
	"jvmpower/internal/pointproto"
)

// Local workers are tested against real subprocesses: when the test binary
// is re-invoked with SUPERVISOR_FAKE_WORKER set, TestMain runs a scripted
// worker instead of the tests. The script is chosen per point by the
// spec's Bench field, so one pool can be driven through every failure mode
// and its recovery.
func TestMain(m *testing.M) {
	switch os.Getenv("SUPERVISOR_FAKE_WORKER") {
	case "":
		os.Exit(m.Run())
	case "scripted":
		fakeWorker()
	case "badversion":
		// A stale binary: the protocol before the current one.
		_ = pointproto.WriteFrame(os.Stdout, pointproto.MsgNodeHello,
			pointproto.MarshalNodeHello(pointproto.NodeHello{Version: pointproto.Version - 1, PID: uint64(os.Getpid()), Capacity: 1}))
		time.Sleep(time.Minute)
	}
	os.Exit(0)
}

// fakeWorker speaks the node dialect with capacity 1 — heartbeating from
// its own goroutine like a real executor — and misbehaves on demand.
func fakeWorker() {
	var mu sync.Mutex
	muted := false
	send := func(t pointproto.MsgType, payload []byte) {
		mu.Lock()
		defer mu.Unlock()
		if !muted {
			_ = pointproto.WriteFrame(os.Stdout, t, payload)
		}
	}
	send(pointproto.MsgNodeHello, pointproto.MarshalNodeHello(pointproto.NodeHello{
		Version: pointproto.Version, PID: uint64(os.Getpid()), Capacity: 1}))
	go func() {
		for {
			send(pointproto.MsgHeartbeat, nil)
			time.Sleep(10 * time.Millisecond)
		}
	}()
	in := bufio.NewReader(os.Stdin)
	for {
		typ, payload, err := pointproto.ReadFrame(in)
		if err == io.EOF {
			return
		}
		if err != nil || typ != pointproto.MsgTask {
			os.Exit(1)
		}
		task, err := pointproto.UnmarshalTask(payload)
		if err != nil {
			os.Exit(1)
		}
		switch task.Spec.Bench {
		case "ok":
			send(pointproto.MsgHeartbeat, nil)
			send(pointproto.MsgTaskResult, pointproto.MarshalTaskResult(
				pointproto.TaskResult{ID: task.ID, Payload: []byte(task.Spec.Collector)}))
		case "slow":
			// Alive but never done: heartbeats tick, the result never
			// comes. Only the point budget can stop this one.
		case "silent":
			// Wedged: no heartbeat, no result, no exit.
			mu.Lock()
			muted = true
			mu.Unlock()
		case "die":
			os.Exit(3)
		case "sigkill":
			// The kernel OOM killer's signature: a SIGKILL the supervisor
			// did not send.
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			time.Sleep(time.Minute)
		case "garbage":
			mu.Lock()
			_, _ = os.Stdout.Write([]byte{0xFF, 0xFE, 0xFD, 0xFC, 0xFB, 0xFA, 0xF9, 0xF8})
			muted = true
			mu.Unlock()
		case "cleanexit":
			os.Exit(0)
		default:
			os.Exit(1)
		}
	}
}

func testSupervisor(t *testing.T, mutate func(*Config)) (*Supervisor, *metrics.Registry) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cfg := Config{
		Argv:    []string{exe},
		Env:     []string{"SUPERVISOR_FAKE_WORKER=scripted"},
		Workers: 1,
		// Race-instrumented binaries hold their pipes for ~1s of runtime
		// shutdown after os.Exit, so a watchdog near 1s would misread a
		// clean worker exit as a hang under -race. Tests that want the
		// watchdog to fire use a worker that never exits ("silent") and
		// shrink this themselves.
		HeartbeatTimeout: 5 * time.Second,
		Metrics:          reg,
		Stderr:           io.Discard,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, reg
}

func run(t *testing.T, s *Supervisor, bench, echo string) ([]byte, error) {
	t.Helper()
	return s.Run(context.Background(), pointproto.Spec{Bench: bench, Collector: echo})
}

// mustCrash runs a misbehaving spec and returns its classified crash.
func mustCrash(t *testing.T, s *Supervisor, bench string) *CrashError {
	t.Helper()
	_, err := run(t, s, bench, "")
	if err == nil {
		t.Fatalf("%s worker reported success", bench)
	}
	ce, ok := AsCrash(err)
	if !ok {
		t.Fatalf("%s worker error %v is not a CrashError", bench, err)
	}
	return ce
}

// mustOK asserts the pool (re)serves a healthy point — the recovery check
// after every induced crash.
func mustOK(t *testing.T, s *Supervisor, echo string) {
	t.Helper()
	payload, err := run(t, s, "ok", echo)
	if err != nil {
		t.Fatalf("healthy point after crash: %v", err)
	}
	if string(payload) != echo {
		t.Fatalf("payload = %q, want %q", payload, echo)
	}
}

// TestRunsPoints drives healthy points through a two-worker pool and
// checks payloads and instruments.
func TestRunsPoints(t *testing.T) {
	s, reg := testSupervisor(t, func(c *Config) { c.Workers = 2 })
	for i := 0; i < 5; i++ {
		mustOK(t, s, fmt.Sprintf("point-%d", i))
	}
	if n := reg.Counter("supervisor.points.ok").Value(); n != 5 {
		t.Fatalf("points.ok = %d, want 5", n)
	}
	if reg.Counter("supervisor.heartbeats").Value() == 0 {
		t.Fatal("no heartbeats observed")
	}
	if reg.Counter("supervisor.spawns").Value() > 2 {
		t.Fatal("healthy pool respawned workers")
	}
}

// TestTimeoutKillsRunawayWorker: a worker that heartbeats forever but
// never finishes must die at the point budget — the failure mode the
// in-process dispatcher can only abandon — and the pool must recover.
func TestTimeoutKillsRunawayWorker(t *testing.T) {
	s, reg := testSupervisor(t, func(c *Config) { c.PointTimeout = 150 * time.Millisecond })
	ce := mustCrash(t, s, "slow")
	if ce.Kind != CrashTimeout {
		t.Fatalf("kind = %s, want timeout", ce.Kind)
	}
	mustOK(t, s, "recovered")
	if reg.Counter("supervisor.crashes.timeout").Value() != 1 {
		t.Fatal("timeout crash not counted")
	}
	if reg.Counter("supervisor.restarts").Value() != 1 {
		t.Fatal("restart not counted")
	}
}

// TestHeartbeatWatchdogCatchesSilentHang: a wedged worker (no frames at
// all) dies at the heartbeat budget, classified as a hang, and the pool
// recovers.
func TestHeartbeatWatchdogCatchesSilentHang(t *testing.T) {
	s, _ := testSupervisor(t, func(c *Config) { c.HeartbeatTimeout = 100 * time.Millisecond })
	ce := mustCrash(t, s, "silent")
	if ce.Kind != CrashHang {
		t.Fatalf("kind = %s, want hang", ce.Kind)
	}
	mustOK(t, s, "recovered")
}

// TestCrashClassification walks the remaining taxonomy: nonzero exit,
// un-requested SIGKILL (the OOM signature), protocol garbage, and a clean
// exit mid-point.
func TestCrashClassification(t *testing.T) {
	s, _ := testSupervisor(t, func(c *Config) { c.MemLimit = "1GiB" })
	ce := mustCrash(t, s, "die")
	if ce.Kind != CrashExit || ce.ExitCode != 3 {
		t.Fatalf("die: kind=%s code=%d, want exit/3", ce.Kind, ce.ExitCode)
	}
	mustOK(t, s, "after-exit")

	ce = mustCrash(t, s, "sigkill")
	if ce.Kind != CrashOOM {
		t.Fatalf("sigkill: kind = %s, want oom", ce.Kind)
	}
	if ce.Signal != syscall.SIGKILL.String() {
		t.Fatalf("sigkill: signal = %q", ce.Signal)
	}
	mustOK(t, s, "after-oom")

	ce = mustCrash(t, s, "garbage")
	if ce.Kind != CrashProtocol {
		t.Fatalf("garbage: kind = %s, want protocol", ce.Kind)
	}
	mustOK(t, s, "after-garbage")

	ce = mustCrash(t, s, "cleanexit")
	if ce.Kind != CrashProtocol {
		t.Fatalf("cleanexit: kind = %s, want protocol (%v)", ce.Kind, ce)
	}
	mustOK(t, s, "after-cleanexit")
}

// TestVersionMismatchIsSpawnFailure: an executor speaking the wrong
// protocol version is rejected at handshake, before any task reaches it —
// a local worker speaking the previous version and a TCP node speaking a
// future one alike.
func TestVersionMismatchIsSpawnFailure(t *testing.T) {
	s, _ := testSupervisor(t, func(c *Config) {
		c.Env = []string{"SUPERVISOR_FAKE_WORKER=badversion"}
	})
	ce := mustCrash(t, s, "ok")
	if ce.Kind != CrashSpawn {
		t.Fatalf("local: kind = %s, want spawn", ce.Kind)
	}

	var tasks atomic.Int64
	addr, stop := scriptedNode(t, func(connIdx int, conn net.Conn) {
		h := pointproto.NodeHello{Version: 99, Name: "stale", Capacity: 1}
		if pointproto.WriteFrame(conn, pointproto.MsgNodeHello, pointproto.MarshalNodeHello(h)) != nil {
			return
		}
		for {
			typ, _, err := pointproto.ReadFrame(conn)
			if err != nil {
				return
			}
			if typ == pointproto.MsgTask {
				tasks.Add(1)
			}
		}
	})
	defer stop()
	tcp, _ := tcpSupervisor(t, Config{Nodes: []string{addr}})
	ce = mustCrash(t, tcp, "ok")
	if ce.Kind != CrashSpawn {
		t.Fatalf("tcp: kind = %s, want spawn", ce.Kind)
	}
	if n := tasks.Load(); n != 0 {
		t.Fatalf("%d task frame(s) reached a node that failed its handshake", n)
	}
}

// TestContextCancelKillsWorker: cancelling the run context mid-point kills
// the worker and surfaces the context error, not a crash.
func TestContextCancelKillsWorker(t *testing.T) {
	s, _ := testSupervisor(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := s.Run(ctx, pointproto.Spec{Bench: "silent"})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	mustOK(t, s, "after-cancel")
}

// TestCloseStopsPool: Close kills the workers and fails later Runs.
func TestCloseStopsPool(t *testing.T) {
	s, _ := testSupervisor(t, nil)
	mustOK(t, s, "before-close")
	s.Close()
	if _, err := run(t, s, "ok", "x"); err == nil {
		t.Fatal("Run succeeded after Close")
	}
}

// TestRestartBackoffDeterministic: the backoff schedule is a pure function
// of (slot, attempt) — campaigns replay their restart timing exactly — and
// grows until the cap.
func TestRestartBackoffDeterministic(t *testing.T) {
	for slot := 0; slot < 3; slot++ {
		prev := time.Duration(0)
		for n := 1; n < 12; n++ {
			d := restartBackoff(slot, n)
			if d != restartBackoff(slot, n) {
				t.Fatal("backoff is nondeterministic")
			}
			if d <= 0 || d > 2*restartBackoffMax {
				t.Fatalf("backoff(%d,%d) = %v out of range", slot, n, d)
			}
			if n > 1 && prev > 0 && d > 4*prev+restartBackoffMax {
				t.Fatalf("backoff not bounded: %v after %v", d, prev)
			}
			prev = d
		}
	}
}

// TestBreaker exercises the consecutive-failure contract: successes reset,
// the TripThreshold-th consecutive failure trips exactly once, and a
// tripped breaker stays open.
func TestBreaker(t *testing.T) {
	b := new(Breaker)
	for i := 1; i < TripThreshold; i++ {
		b.Record(true)
	}
	b.Record(false) // success resets
	if b.Tripped() {
		t.Fatal("tripped below threshold")
	}
	for i := 1; i < TripThreshold; i++ {
		if b.Record(true) {
			t.Fatalf("failure %d of %d reported the trip", i, TripThreshold)
		}
	}
	if tripped := b.Record(true); !tripped {
		t.Fatal("the threshold's consecutive failure did not report the trip")
	}
	if b.Record(true) {
		t.Fatal("trip reported twice")
	}
	if b.Allow() {
		t.Fatal("open breaker allowed an operation")
	}
	b.Record(false)
	if b.Allow() {
		t.Fatal("open breaker reopened on success: no half-open state exists")
	}

	var nb *Breaker
	if !nb.Allow() || nb.Record(true) || nb.Tripped() {
		t.Fatal("nil breaker must be a no-op that always allows")
	}
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return conn, err
}

// TestLazyStart: building and closing a supervisor starts no executor — no
// worker is spawned, no node is dialed — and one point then starts exactly
// one, local or remote. The benchmark's set-up probe, which builds the
// CLI's supervisor and exits, depends on the first half.
func TestLazyStart(t *testing.T) {
	idle, reg := testSupervisor(t, func(c *Config) { c.Workers = 2 })
	idle.Close()
	if n := reg.Counter("supervisor.spawns").Value(); n != 0 {
		t.Fatalf("local: %d worker(s) spawned before any point", n)
	}
	s, reg := testSupervisor(t, func(c *Config) { c.Workers = 2 })
	mustOK(t, s, "one")
	if n := reg.Counter("supervisor.spawns").Value(); n != 1 {
		t.Fatalf("local: one point spawned %d workers, want 1", n)
	}

	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, ln, ServeConfig{Handler: echoHandler(0, nil), Capacity: 1})
	}()
	defer func() {
		cancel()
		<-done
	}()
	addr := inner.Addr().String()
	idleTCP, _ := tcpSupervisor(t, Config{Nodes: []string{addr, addr}})
	idleTCP.Close()
	if n := ln.accepts.Load(); n != 0 {
		t.Fatalf("tcp: %d connection(s) accepted before any point", n)
	}
	tcp, _ := tcpSupervisor(t, Config{Nodes: []string{addr, addr}})
	if got, err := tcp.Run(context.Background(), pointproto.Spec{Bench: "db"}); err != nil || string(got) != "result:db" {
		t.Fatalf("tcp Run = %q, %v", got, err)
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Fatalf("tcp: one point dialed %d nodes, want 1", n)
	}
}

// TestCancelQueuedNeverSent: a point whose caller gives up while it is
// still queued is never sent. The node holds its one slot on a first
// point; the second is cancelled in the queue; after the first completes,
// the node must have seen exactly one task frame.
func TestCancelQueuedNeverSent(t *testing.T) {
	var tasks atomic.Int64
	release := make(chan struct{})
	first := make(chan struct{})
	addr, stop := scriptedNode(t, func(connIdx int, conn net.Conn) {
		if sendNodeHello(conn, 1) != nil {
			return
		}
		for {
			typ, payload, err := pointproto.ReadFrame(conn)
			if err != nil {
				return
			}
			if typ != pointproto.MsgTask {
				continue
			}
			task, err := pointproto.UnmarshalTask(payload)
			if err != nil {
				return
			}
			if tasks.Add(1) == 1 {
				close(first)
				<-release
			}
			res := pointproto.MarshalTaskResult(pointproto.TaskResult{ID: task.ID, Payload: []byte(task.Spec.Bench)})
			if pointproto.WriteFrame(conn, pointproto.MsgTaskResult, res) != nil {
				return
			}
		}
	})
	defer stop()
	s, reg := tcpSupervisor(t, Config{Nodes: []string{addr}, HeartbeatTimeout: time.Minute})

	firstDone := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), pointproto.Spec{Bench: "first"})
		firstDone <- err
	}()
	<-first
	ctx, cancel := context.WithCancel(context.Background())
	queuedDone := make(chan error, 1)
	go func() {
		_, err := s.Run(ctx, pointproto.Spec{Bench: "queued"})
		queuedDone <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the second point reach the queue
	cancel()
	if err := <-queuedDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued Run = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	// A third point proves the connection is still being fed in order:
	// once it is answered, anything sent before it has arrived too.
	if got, err := s.Run(context.Background(), pointproto.Spec{Bench: "third"}); err != nil || string(got) != "third" {
		t.Fatalf("third Run = %q, %v", got, err)
	}
	if n := tasks.Load(); n != 2 {
		t.Fatalf("node saw %d task frames, want 2: the cancelled point was sent", n)
	}
	if n := reg.Counter("supervisor.orphans").Value(); n != 0 {
		t.Fatalf("supervisor.orphans = %d: a cancelled queued point produced a result", n)
	}
	s.Close() // drops the connection, so the scripted node can unwind
}
