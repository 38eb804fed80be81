package supervisor

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jvmpower/internal/metrics"
	"jvmpower/internal/pointproto"
)

// TCP nodes are tested against real loopback executors (Serve) and
// scripted raw-protocol nodes that inject the failures Serve never would.

// leakCheck is the goroutine-hygiene assertion every chaos scenario runs
// under: call before the work, invoke the returned func after teardown, and
// any goroutine that outlives the scenario fails the test with stacks.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// startServe runs a real executor node on a loopback listener and returns
// its address plus a shutdown that waits for Serve to unwind.
func startServe(t *testing.T, cfg ServeConfig) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, ln, cfg)
	}()
	return ln.Addr().String(), func() {
		cancel()
		<-done
	}
}

// scriptedNode runs a raw-protocol node: script handles each accepted
// connection (the conn is closed for it afterwards). Used to inject the
// protocol-level failures Serve would never produce.
func scriptedNode(t *testing.T, script func(connIdx int, conn net.Conn)) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				wg.Wait()
				return
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer conn.Close()
				script(i, conn)
			}(i)
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		<-done
	}
}

// sendNodeHello performs the node side of the handshake on a scripted conn.
func sendNodeHello(conn net.Conn, capacity uint64) error {
	h := pointproto.NodeHello{Version: pointproto.Version, Name: "scripted", Capacity: capacity}
	return pointproto.WriteFrame(conn, pointproto.MsgNodeHello, pointproto.MarshalNodeHello(h))
}

// tcpSupervisor builds a supervisor over TCP nodes with a fresh registry,
// closed at test cleanup.
func tcpSupervisor(t *testing.T, cfg Config) (*Supervisor, *metrics.Registry) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Stderr == nil {
		cfg.Stderr = io.Discard
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, cfg.Metrics
}

// waitCounter waits for a metrics counter to reach min.
func waitCounter(t *testing.T, reg *metrics.Registry, name string, min int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter(name).Value() < min {
		if time.Now().After(deadline) {
			t.Fatalf("counter %s stuck at %d, want >= %d", name, reg.Counter(name).Value(), min)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// echoHandler returns a handler answering each spec with a payload derived
// from its bench name, with an optional per-point delay and execution
// counter.
func echoHandler(delay time.Duration, execs *atomic.Int64) func(pointproto.Spec) []byte {
	return func(s pointproto.Spec) []byte {
		if execs != nil {
			execs.Add(1)
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		return []byte("result:" + s.Bench)
	}
}

// TestFleetRoundTrip: one node, a handful of points, payloads intact.
func TestFleetRoundTrip(t *testing.T) {
	check := leakCheck(t)
	addr, stop := startServe(t, ServeConfig{Handler: echoHandler(0, nil), Capacity: 2})
	c, _ := tcpSupervisor(t, Config{Nodes: []string{addr}})
	for i := 0; i < 5; i++ {
		bench := fmt.Sprintf("b%d", i)
		got, err := c.Run(context.Background(), pointproto.Spec{Bench: bench})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "result:"+bench {
			t.Fatalf("payload = %q", got)
		}
	}
	c.Close()
	stop()
	check()
}

// TestRequeueExactlyOnce: a node that kills its first connection after
// receiving a task forces a requeue; the reconnected node then serves it.
// Exactly one requeue, exactly one disconnect, and the point still lands.
func TestRequeueExactlyOnce(t *testing.T) {
	check := leakCheck(t)
	addr, stop := scriptedNode(t, func(connIdx int, conn net.Conn) {
		if err := sendNodeHello(conn, 1); err != nil {
			return
		}
		for {
			typ, payload, err := pointproto.ReadFrame(conn)
			if err != nil || typ != pointproto.MsgTask {
				return
			}
			task, err := pointproto.UnmarshalTask(payload)
			if err != nil {
				return
			}
			if connIdx == 0 {
				return // die mid-point: the deferred close drops the conn
			}
			res := pointproto.MarshalTaskResult(pointproto.TaskResult{ID: task.ID, Payload: []byte("ok")})
			if pointproto.WriteFrame(conn, pointproto.MsgTaskResult, res) != nil {
				return
			}
		}
	})
	c, reg := tcpSupervisor(t, Config{Nodes: []string{addr}, HeartbeatTimeout: 2 * time.Second})
	got, err := c.Run(context.Background(), pointproto.Spec{Bench: "db"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ok" {
		t.Fatalf("payload = %q", got)
	}
	if v := reg.Counter("supervisor.requeues").Value(); v != 1 {
		t.Fatalf("supervisor.requeues = %d, want 1", v)
	}
	if v := reg.Counter("supervisor.crashes." + CrashDisconnect.String()).Value(); v != 1 {
		t.Fatalf("disconnect crashes = %d, want 1", v)
	}
	c.Close()
	stop()
	check()
}

// TestSecondDeathFails: a node that kills every connection mid-point burns
// the task's single requeue and the task fails with the classified crash —
// the TCP analogue of the dispatcher's abortive-failure rule.
func TestSecondDeathFails(t *testing.T) {
	check := leakCheck(t)
	addr, stop := scriptedNode(t, func(connIdx int, conn net.Conn) {
		if sendNodeHello(conn, 1) != nil {
			return
		}
		pointproto.ReadFrame(conn) // swallow the task, then die
	})
	c, reg := tcpSupervisor(t, Config{Nodes: []string{addr}, HeartbeatTimeout: 2 * time.Second})
	_, err := c.Run(context.Background(), pointproto.Spec{Bench: "db"})
	ce, ok := AsCrash(err)
	if !ok {
		t.Fatalf("err = %v, want CrashError", err)
	}
	if ce.Kind != CrashDisconnect {
		t.Fatalf("crash kind = %s, want disconnect", ce.Kind)
	}
	if v := reg.Counter("supervisor.requeues").Value(); v != 1 {
		t.Fatalf("supervisor.requeues = %d, want exactly 1", v)
	}
	c.Close()
	stop()
	check()
}

// TestBreakerOpensNodePermanently: TripThreshold consecutive deaths
// open the node's breaker; with every node down, further Runs fail fast
// instead of queueing forever. A task survives one death by requeue, so
// the first task costs two deaths and the second the third.
func TestBreakerOpensNodePermanently(t *testing.T) {
	check := leakCheck(t)
	addr, stop := scriptedNode(t, func(connIdx int, conn net.Conn) {
		if sendNodeHello(conn, 1) != nil {
			return
		}
		pointproto.ReadFrame(conn)
	})
	c, reg := tcpSupervisor(t, Config{Nodes: []string{addr}, HeartbeatTimeout: 2 * time.Second})
	for _, bench := range []string{"a", "b"} {
		if _, err := c.Run(context.Background(), pointproto.Spec{Bench: bench}); err == nil {
			t.Fatalf("task %s on an always-dying node succeeded", bench)
		}
	}
	if v := reg.Counter("supervisor.breakers.opened").Value(); v != 1 {
		t.Fatalf("breakers.opened = %d, want 1", v)
	}
	// Every node is now down: fail fast, not hang.
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), pointproto.Spec{Bench: "c"})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run with every node down succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run with every node down hung")
	}
	c.Close()
	stop()
	check()
}

// TestChaosDroppedMidFrame: a node that tears a TaskResult frame mid-
// payload classifies as disconnect (ErrUnexpectedEOF, not a clean EOF) and
// the point is rescued by the healthy node.
func TestChaosDroppedMidFrame(t *testing.T) {
	check := leakCheck(t)
	evilAddr, stopEvil := scriptedNode(t, func(connIdx int, conn net.Conn) {
		if sendNodeHello(conn, 1) != nil {
			return
		}
		if connIdx > 0 { // after the first death, go silent until closed
			var block [1]byte
			conn.Read(block[:])
			return
		}
		// A TaskResult header promising 100 bytes, delivering 10 before the
		// deferred close tears the frame mid-payload.
		hdr := []byte{byte(pointproto.MsgTaskResult), 0, 0, 0, 100}
		conn.Write(append(hdr, make([]byte, 10)...))
	})
	goodAddr, stopGood := startServe(t, ServeConfig{Handler: echoHandler(0, nil)})
	c, reg := tcpSupervisor(t, Config{Nodes: []string{evilAddr, goodAddr}, HeartbeatTimeout: time.Second})
	got, err := c.Run(context.Background(), pointproto.Spec{Bench: "db"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "result:db" {
		t.Fatalf("payload = %q", got)
	}
	waitCounter(t, reg, "supervisor.crashes."+CrashDisconnect.String(), 1)
	c.Close()
	stopEvil()
	stopGood()
	check()
}

// TestChaosSlowReaderStall: a node that handshakes and then goes silent —
// no heartbeats, no results — trips the watchdog's read deadline and
// classifies as partition; the point lands on the healthy node.
func TestChaosSlowReaderStall(t *testing.T) {
	check := leakCheck(t)
	silentAddr, stopSilent := scriptedNode(t, func(connIdx int, conn net.Conn) {
		if sendNodeHello(conn, 1) != nil {
			return
		}
		var block [1]byte
		for {
			if _, err := conn.Read(block[:]); err != nil {
				return // unblocked by the supervisor or shutdown closing the conn
			}
		}
	})
	goodAddr, stopGood := startServe(t, ServeConfig{Handler: echoHandler(0, nil), HeartbeatInterval: 20 * time.Millisecond})
	c, reg := tcpSupervisor(t, Config{Nodes: []string{silentAddr, goodAddr}, HeartbeatTimeout: 250 * time.Millisecond})
	got, err := c.Run(context.Background(), pointproto.Spec{Bench: "db"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "result:db" {
		t.Fatalf("payload = %q", got)
	}
	waitCounter(t, reg, "supervisor.crashes."+CrashPartition.String(), 1)
	c.Close()
	stopSilent()
	stopGood()
	check()
}

// TestChaosProtocolGarbage: a node that speaks garbage after the handshake
// classifies as a protocol crash, not a disconnect.
func TestChaosProtocolGarbage(t *testing.T) {
	check := leakCheck(t)
	evilAddr, stopEvil := scriptedNode(t, func(connIdx int, conn net.Conn) {
		if sendNodeHello(conn, 1) != nil {
			return
		}
		if connIdx > 0 {
			var block [1]byte
			conn.Read(block[:])
			return
		}
		conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
		var block [1]byte
		conn.Read(block[:]) // hold the conn open so the close is the supervisor's
	})
	goodAddr, stopGood := startServe(t, ServeConfig{Handler: echoHandler(0, nil)})
	c, reg := tcpSupervisor(t, Config{Nodes: []string{evilAddr, goodAddr}, HeartbeatTimeout: time.Second})
	got, err := c.Run(context.Background(), pointproto.Spec{Bench: "db"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "result:db" {
		t.Fatalf("payload = %q", got)
	}
	waitCounter(t, reg, "supervisor.crashes."+CrashProtocol.String(), 1)
	c.Close()
	stopEvil()
	stopGood()
	check()
}

// TestChaosCancelMidCampaign: cancelling the campaign context mid-point
// returns promptly and everything unwinds without leaking goroutines —
// the SIGINT scenario, since cmd/experiments maps SIGINT to
// context cancellation.
func TestChaosCancelMidCampaign(t *testing.T) {
	check := leakCheck(t)
	gate := make(chan struct{})
	addr, stop := startServe(t, ServeConfig{Handler: func(s pointproto.Spec) []byte {
		<-gate
		return []byte("late")
	}})
	c, _ := tcpSupervisor(t, Config{Nodes: []string{addr}})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Run(ctx, pointproto.Spec{Bench: "db"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	cancel()
	close(gate) // release the node-side point so Serve can unwind
	c.Close()
	stop()
	check()
}

// TestTaskTimeout: a point with no result inside the point budget fails as
// CrashTimeout while the node keeps heartbeating (a spinning point, not a
// dead node), and the late result is dropped as an orphan.
func TestTaskTimeout(t *testing.T) {
	check := leakCheck(t)
	gate := make(chan struct{})
	addr, stop := startServe(t, ServeConfig{Handler: func(s pointproto.Spec) []byte {
		<-gate
		return []byte("late")
	}, HeartbeatInterval: 20 * time.Millisecond})
	c, _ := tcpSupervisor(t, Config{Nodes: []string{addr}, PointTimeout: 150 * time.Millisecond})
	_, err := c.Run(context.Background(), pointproto.Spec{Bench: "db"})
	ce, ok := AsCrash(err)
	if !ok || ce.Kind != CrashTimeout {
		t.Fatalf("err = %v, want CrashTimeout", err)
	}
	close(gate)
	c.Close()
	stop()
	check()
}

// TestServeHandshakeEnvironment: the NodeHello a real node sends carries
// protocol version, capacity, and the benchstat-style environment capture.
func TestServeHandshakeEnvironment(t *testing.T) {
	check := leakCheck(t)
	addr, stop := startServe(t, ServeConfig{Name: "envnode", Capacity: 3, Handler: echoHandler(0, nil)})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	typ, payload, err := pointproto.ReadFrame(conn)
	if err != nil || typ != pointproto.MsgNodeHello {
		t.Fatalf("first frame = %s, %v", typ, err)
	}
	hello, err := pointproto.UnmarshalNodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Version != pointproto.Version || hello.Name != "envnode" || hello.Capacity != 3 {
		t.Fatalf("hello = %+v", hello)
	}
	if hello.GOOS != runtime.GOOS || hello.GOARCH != runtime.GOARCH || hello.GoVersion != runtime.Version() {
		t.Fatalf("environment capture = %+v", hello)
	}
	if hello.GOMAXPROCS == 0 || hello.NumCPU == 0 {
		t.Fatalf("parallelism capture = %+v", hello)
	}
	conn.Close()
	stop()
	check()
}

// TestFrameLengthSanity pins the wire layout the scripted nodes above
// assume: 1-byte type, 4-byte big-endian length.
func TestFrameLengthSanity(t *testing.T) {
	var lenBytes [4]byte
	binary.BigEndian.PutUint32(lenBytes[:], 100)
	if lenBytes != [4]byte{0, 0, 0, 100} {
		t.Fatal("frame length encoding drifted")
	}
}
