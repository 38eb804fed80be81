package supervisor

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jvmpower/internal/benchstat"
	"jvmpower/internal/pointproto"
)

// defaultHeartbeatInterval paces an executor's liveness ticks: 40 beats
// inside the supervisor's default 2s watchdog.
const defaultHeartbeatInterval = 50 * time.Millisecond

// ServeConfig configures the executor side of the node dialect.
type ServeConfig struct {
	// Name identifies the executor in supervisor logs and journal events.
	// Serve defaults it to the listener address; empty keeps the
	// supervisor's own name for the executor.
	Name string
	// Capacity is the executor's concurrent-point budget, advertised in
	// the handshake; the supervisor keeps at most this many points in
	// flight on the connection. Defaults to GOMAXPROCS.
	Capacity int
	// Handler computes one point and returns its opaque result payload.
	Handler func(pointproto.Spec) []byte
	// HeartbeatInterval paces liveness ticks. Defaults to 50ms.
	HeartbeatInterval time.Duration
	// Stderr, when set, receives Serve's log lines.
	Stderr io.Writer
	// Drain, when non-nil, arms graceful drain: once it closes, the
	// executor stops accepting connections and tasks, finishes every
	// in-flight point (results are still delivered, heartbeats keep
	// ticking so the supervisor's watchdog stays fed), announces departure
	// with a node-goodbye frame, and closes each connection cleanly — the
	// supervisor sees a drained executor, not a disconnect crash. Serve
	// then returns nil. Context cancellation remains the hard-abort path.
	Drain <-chan struct{}
}

// Serve runs a TCP executor node on a listener until ctx is cancelled,
// speaking ServeConn on every accepted supervisor connection. It returns
// after every connection has unwound — with nil when cfg.Drain triggered
// a graceful drain.
func Serve(ctx context.Context, ln net.Listener, cfg ServeConfig) error {
	if cfg.Name == "" {
		cfg.Name = ln.Addr().String()
	}
	var (
		mu       sync.Mutex
		conns    = make(map[net.Conn]struct{})
		wg       sync.WaitGroup
		draining atomic.Bool
	)
	closeAll := func() {
		ln.Close()
		mu.Lock()
		for conn := range conns {
			conn.Close()
		}
		mu.Unlock()
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		if cfg.Drain != nil {
			select {
			case <-cfg.Drain:
				// Stop accepting; live connections drain themselves (each
				// ServeConn watches cfg.Drain). A later ctx cancellation
				// still hard-aborts a drain that wedges.
				draining.Store(true)
				ln.Close()
			case <-ctx.Done():
				closeAll()
				return
			case <-done:
				return
			}
		}
		select {
		case <-ctx.Done():
			closeAll()
		case <-done:
		}
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if draining.Load() && ctx.Err() == nil {
				wg.Wait() // every connection finishes its goodbye sequence
				logf(cfg, "node %s: drained", cfg.Name)
				return nil
			}
			closeAll()
			wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ServeConn(conn, cfg); err != nil {
				logf(cfg, "node %s: %v", cfg.Name, err)
			}
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
		}()
	}
}

// ServeConn speaks the executor side of the node dialect on one
// connection: a node-hello (identity, capacity, benchstat-style
// environment capture), a heartbeat ticker, and a task read loop that
// computes points concurrently up to Capacity and answers with
// task-result frames in completion order. It returns when the supervisor
// closes the connection (nil) or it breaks (the error); a local worker
// runs it over its stdin and stdout.
func ServeConn(conn io.ReadWriteCloser, cfg ServeConfig) error {
	if cfg.Capacity <= 0 {
		cfg.Capacity = runtime.GOMAXPROCS(0)
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = defaultHeartbeatInterval
	}
	defer conn.Close()
	var wmu sync.Mutex
	send := func(t pointproto.MsgType, payload []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		return pointproto.WriteFrame(conn, t, payload)
	}

	env := benchstat.CaptureEnvironment(nil, "")
	hello := pointproto.NodeHello{
		Version:    pointproto.Version,
		Name:       cfg.Name,
		PID:        uint64(os.Getpid()),
		Capacity:   uint64(cfg.Capacity),
		GOOS:       env.GOOS,
		GOARCH:     env.GOARCH,
		CPU:        env.CPU,
		GoVersion:  env.GoVersion,
		GOMAXPROCS: uint64(env.GOMAXPROCS),
		NumCPU:     uint64(env.NumCPU),
	}
	if err := send(pointproto.MsgNodeHello, pointproto.MarshalNodeHello(hello)); err != nil {
		return err
	}

	// Two groups with different lifetimes: tasks must all finish before the
	// goodbye frame (their results ride the same connection), while the
	// heartbeat and drain watcher keep running *through* that wait — a long
	// final point must not starve the supervisor's watchdog — and stop only
	// when the connection is done for good.
	stop := make(chan struct{})
	var aux, tasks sync.WaitGroup
	var draining atomic.Bool
	defer aux.Wait()
	defer close(stop)
	aux.Add(1)
	go func() {
		defer aux.Done()
		tick := time.NewTicker(cfg.HeartbeatInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := send(pointproto.MsgHeartbeat, nil); err != nil {
					return
				}
			}
		}
	}()
	if cfg.Drain != nil {
		aux.Add(1)
		go func() {
			defer aux.Done()
			select {
			case <-cfg.Drain:
				draining.Store(true)
				// Unblock the read loop without touching the write half:
				// in-flight results and the goodbye still need the socket.
				if tc, ok := conn.(*net.TCPConn); ok {
					tc.CloseRead()
				} else if dc, ok := conn.(interface{ SetReadDeadline(time.Time) error }); ok {
					dc.SetReadDeadline(time.Now())
				}
			case <-stop:
			}
		}()
	}

	br := bufio.NewReader(conn)
	sem := make(chan struct{}, cfg.Capacity)
	for {
		typ, payload, err := pointproto.ReadFrame(br)
		if err == nil && typ != pointproto.MsgTask {
			err = fmt.Errorf("unexpected %s frame", typ)
		}
		var task pointproto.Task
		if err == nil {
			task, err = pointproto.UnmarshalTask(payload)
		}
		if err != nil {
			if draining.Load() {
				// Drain epilogue: finish in-flight points (their results
				// are sent from the task goroutines), then announce the
				// deliberate departure so the supervisor's next EOF reads
				// as a drained executor rather than a crash.
				tasks.Wait()
				_ = send(pointproto.MsgNodeGoodbye, nil)
				return nil
			}
			tasks.Wait()
			if err == io.EOF {
				return nil
			}
			return err
		}
		sem <- struct{}{} // backpressure: at most Capacity points computing
		tasks.Add(1)
		go func() {
			defer tasks.Done()
			defer func() { <-sem }()
			defer func() {
				// A panicking handler drops the connection: the supervisor
				// sees the executor leave and requeues the point.
				if r := recover(); r != nil {
					logf(cfg, "node %s: point panic: %v", cfg.Name, r)
					conn.Close()
				}
			}()
			out := cfg.Handler(task.Spec)
			_ = send(pointproto.MsgTaskResult, pointproto.MarshalTaskResult(pointproto.TaskResult{ID: task.ID, Payload: out}))
		}()
	}
}

func logf(cfg ServeConfig, format string, args ...any) {
	if cfg.Stderr != nil {
		fmt.Fprintf(cfg.Stderr, format+"\n", args...)
	}
}
