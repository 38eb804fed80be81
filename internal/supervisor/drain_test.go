package supervisor

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"jvmpower/internal/pointproto"
)

// startServeDrain runs an executor node whose graceful drain is armed and
// returns its address, the Serve error (readable after done closes), and a
// hard-stop func.
func startServeDrain(t *testing.T, cfg ServeConfig) (addr string, done chan struct{}, serveErr *error, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done = make(chan struct{})
	serveErr = new(error)
	go func() {
		defer close(done)
		*serveErr = Serve(ctx, ln, cfg)
	}()
	return ln.Addr().String(), done, serveErr, func() {
		cancel()
		<-done
	}
}

// TestGracefulDrainMidPoint drains a node while a point is computing: the
// point must still complete and deliver its result, Serve must return nil,
// and the supervisor must record a clean departure — zero crash counters,
// zero requeues, a "draining"/"drained" event pair.
func TestGracefulDrainMidPoint(t *testing.T) {
	check := leakCheck(t)
	started := make(chan struct{})
	release := make(chan struct{})
	drain := make(chan struct{})
	handler := func(s pointproto.Spec) []byte {
		close(started)
		<-release
		return []byte("result:" + s.Bench)
	}
	addr, done, serveErr, stop := startServeDrain(t, ServeConfig{
		Handler: handler, Capacity: 2, Drain: drain,
	})
	defer stop()

	var evMu sync.Mutex
	var events []string
	c, m := tcpSupervisor(t, Config{
		Nodes: []string{addr},
		OnNodeEvent: func(node, event, detail string) {
			evMu.Lock()
			events = append(events, event)
			evMu.Unlock()
		},
	})

	type res struct {
		payload []byte
		err     error
	}
	resC := make(chan res, 1)
	go func() {
		p, err := c.Run(context.Background(), pointproto.Spec{Bench: "b1"})
		resC <- res{p, err}
	}()
	<-started    // the point is in flight on the node
	close(drain) // SIGTERM equivalent: stop admissions, finish in-flight
	close(release)

	r := <-resC
	if r.err != nil {
		t.Fatalf("drained point failed: %v", r.err)
	}
	if string(r.payload) != "result:b1" {
		t.Fatalf("payload = %q", r.payload)
	}

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if *serveErr != nil {
		t.Fatalf("Serve returned %v after graceful drain, want nil", *serveErr)
	}

	// The supervisor's departure handling runs off its own read loop;
	// wait for it, then assert the departure was not accounted as any
	// kind of crash.
	waitCounter(t, m, "supervisor.drains", 1)
	for _, kind := range []string{"disconnect", "partition", "protocol", "spawn", "timeout"} {
		if v := m.Counter("supervisor.crashes." + kind).Value(); v != 0 {
			t.Fatalf("supervisor.crashes.%s = %d after graceful drain, want 0", kind, v)
		}
	}
	if v := m.Counter("supervisor.requeues").Value(); v != 0 {
		t.Fatalf("supervisor.requeues = %d after graceful drain, want 0", v)
	}

	evMu.Lock()
	joined := strings.Join(events, ",")
	evMu.Unlock()
	if !strings.Contains(joined, "draining") || !strings.Contains(joined, "drained") {
		t.Fatalf("node events = %q, want draining and drained", joined)
	}
	if strings.Contains(joined, "down") {
		t.Fatalf("node events = %q: a graceful drain must not record a down event", joined)
	}

	// No node is left: new work fails with a typed scheduling error
	// instead of hanging.
	if _, err := c.Run(context.Background(), pointproto.Spec{Bench: "b2"}); err == nil {
		t.Fatal("Run after the only node drained should fail")
	} else if !strings.Contains(err.Error(), "no nodes available") {
		t.Fatalf("post-drain Run error = %v, want no-nodes-available", err)
	}

	c.Close()
	stop()
	check()
}

// TestGracefulDrainIdle drains a node with nothing in flight: Serve exits
// nil promptly and the supervisor records a drain, not a crash.
func TestGracefulDrainIdle(t *testing.T) {
	check := leakCheck(t)
	drain := make(chan struct{})
	addr, done, serveErr, stop := startServeDrain(t, ServeConfig{
		Handler: echoHandler(0, nil), Capacity: 1, Drain: drain,
	})
	defer stop()
	c, m := tcpSupervisor(t, Config{Nodes: []string{addr}})

	// One round trip proves the connection is fully installed first.
	if _, err := c.Run(context.Background(), pointproto.Spec{Bench: "b0"}); err != nil {
		t.Fatal(err)
	}
	close(drain)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after idle drain")
	}
	if *serveErr != nil {
		t.Fatalf("Serve returned %v, want nil", *serveErr)
	}
	waitCounter(t, m, "supervisor.drains", 1)
	if v := m.Counter("supervisor.crashes.disconnect").Value(); v != 0 {
		t.Fatalf("supervisor.crashes.disconnect = %d, want 0", v)
	}
	c.Close()
	stop()
	check()
}
