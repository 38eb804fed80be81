// Package supervisor runs characterization points on executors: local
// worker subprocesses (`experiments -worker`, driven over their
// stdin/stdout pipes) and remote nodes (`experiments -serve-node`, driven
// over TCP). One coordinator drives both over the pointproto node dialect:
// an executor opens with a node-hello carrying its identity, capacity and
// environment capture, the supervisor streams task frames to it up to that
// capacity, and the executor answers with task-result frames in completion
// order, heartbeating all the while.
//
// Scheduling is one shared FIFO queue that any connected executor with
// free capacity pulls from. Executors start lazily, in configuration
// order: nothing is spawned or dialed until a point is queued that no
// connected executor has capacity for, so a run served entirely from cache
// costs nothing.
//
// Only process lifecycle is local-specific (local.go): spawn, GOMEMLIMIT,
// the wait status that tells exit, signal and OOM apart, and SIGKILL plus
// reap. The rest is shared. A per-frame read deadline is the watchdog on
// both kinds of connection: silence is a hang on a local worker, which is
// SIGKILLed, and a partition on a TCP node, which is dropped. Every death
// is classified (crash.go) and handled by one rule keyed on its CrashKind:
// connection-level deaths requeue the executor's in-flight points once and
// feed its breaker, point-level deaths fail the point in flight. Restarts
// wait out a deterministically jittered backoff.
//
// A point that exceeds PointTimeout, or whose caller's context ends, gives
// up its slot: a local worker computing it is SIGKILLed so its CPU and
// memory come back, a remote node's late result is counted as an orphan,
// and a point still queued is never sent.
//
// The supervisor moves opaque spec and result payloads. The experiments
// package owns both ends' semantics, which keeps this package free of
// everything above the protocol and metrics layers.
package supervisor

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"

	"jvmpower/internal/metrics"
	"jvmpower/internal/pointproto"
)

// Config describes the executors and how they are watched.
type Config struct {
	// Argv is the local worker command line (argv[0] is the binary),
	// required when there are local workers. In production this is the
	// experiments binary re-invoked with -worker; tests point it at
	// helper processes.
	Argv []string
	// Env lists extra KEY=VALUE entries appended to the parent's
	// environment for each local worker.
	Env []string
	// Workers is the number of local worker subprocesses, each computing
	// one point at a time. Defaults to 1 when Nodes is empty.
	Workers int
	// MemLimit, when non-empty, is exported to each local worker as
	// GOMEMLIMIT (e.g. "512MiB"): the worker's runtime then treats it as
	// a soft ceiling, and a point that blows far past it meets the kernel
	// OOM killer in its own process instead of taking the campaign down.
	MemLimit string
	// Nodes are remote executor addresses (host:port) to dial.
	Nodes []string
	// PointTimeout bounds one point's wall time, heartbeats or not; on
	// expiry the point fails as CrashTimeout and gives up its slot. 0
	// disables it.
	PointTimeout time.Duration
	// HeartbeatTimeout is the watchdog: a connection that delivers no
	// frame for this long is dead (a hang on a local worker, a partition
	// on a TCP node). It also bounds each task write, so an executor that
	// stops draining its connection fails the same watchdog. Defaults to
	// 2s, 40 beats of the executors' 50 ms heartbeat.
	HeartbeatTimeout time.Duration
	// Metrics, when non-nil, receives the supervisor.* instrument family.
	Metrics *metrics.Registry
	// Stderr receives local worker stderr and one line per executor
	// lifecycle transition. Defaults to the parent's stderr.
	Stderr io.Writer
	// OnNodeEvent, when set, observes executor lifecycle transitions
	// ("up", "down", "breaker-open", "draining", "drained") for
	// journaling. The "up" detail carries the executor's environment.
	OnNodeEvent func(node, event, detail string)
}

const (
	defaultHeartbeatTimeout = 2 * time.Second
	// handshakeTimeout bounds start-up: process spawn or TCP dial, then
	// the node-hello.
	handshakeTimeout = 10 * time.Second

	// Restart n waits restartBackoffBase<<(n-1), capped, scaled by a
	// deterministic jitter in [0.5, 1.5), so a crashing campaign replays
	// its schedule exactly.
	restartBackoffBase = 25 * time.Millisecond
	restartBackoffMax  = 2 * time.Second
)

var errClosed = errors.New("supervisor: closed")

// Supervisor owns the executors: one lifecycle goroutine per configured
// executor, and one queue and condition variable under a single mutex
// that wake senders and idle executors when work or capacity appears.
type Supervisor struct {
	cfg    Config
	nodes  []*node
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	mu        sync.Mutex
	cond      *sync.Cond
	shut      bool
	queue     []*task
	lastCrash error
}

// node is one configured executor — a local worker slot or a TCP address
// — and its connection lifecycle. Fields below breaker are guarded by
// Supervisor.mu.
type node struct {
	idx     int
	addr    string // "" for a local worker
	breaker *Breaker

	name     string
	waiting  bool // disconnected and ready to start when work needs it
	starting bool // spawning or dialing for queued work
	up       bool // handshake done, pulling work
	down     bool // retired for the run: breaker open or drained
	draining bool
	gen      uint64
	link     *link // the current connection, from spawn or dial on
	capacity int
	nextID   uint64
	inflight map[uint64]*task
}

// link is one connection to an executor: a TCP socket, or a local
// worker's pipes plus its process.
type link struct {
	conn conn
	br   *bufio.Reader
	proc *proc // nil for a TCP node
}

// conn is what both kinds of executor connection provide. The deadlines
// are what make the per-frame read deadline a watchdog on either.
type conn interface {
	io.ReadWriteCloser
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// task is one queued or in-flight point. done closes exactly once, when
// payload or err is set; requeued marks that the task already survived
// one executor death. node and id locate it while in flight.
type task struct {
	spec     pointproto.Spec
	node     *node
	id       uint64
	requeued bool
	done     chan struct{}
	payload  []byte
	err      error
}

// New validates the config and starts one lifecycle goroutine per
// executor. The goroutines wait for work; nothing is spawned or dialed
// yet. Callers must Close the supervisor.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Workers < 1 && len(cfg.Nodes) == 0 {
		cfg.Workers = 1
	}
	if cfg.Workers > 0 && len(cfg.Argv) == 0 {
		return nil, fmt.Errorf("supervisor: Config.Argv is required for local workers")
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = defaultHeartbeatTimeout
	}
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}
	s := &Supervisor{cfg: cfg, closed: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	names := make([]string, cfg.Workers, cfg.Workers+len(cfg.Nodes))
	for i := range names {
		names[i] = fmt.Sprintf("worker-%d", i)
	}
	for i, name := range append(names, cfg.Nodes...) {
		n := &node{idx: i, name: name, breaker: new(Breaker), waiting: true,
			inflight: make(map[uint64]*task)}
		if i >= cfg.Workers {
			n.addr = name
		}
		s.nodes = append(s.nodes, n)
	}
	for _, n := range s.nodes {
		s.wg.Add(1)
		go s.nodeLoop(n)
	}
	return s, nil
}

// Run executes one point spec on an executor and returns its opaque result
// payload. Executor deaths come back as *CrashError. When ctx ends first,
// Run returns ctx's error and the point gives up its slot.
func (s *Supervisor) Run(ctx context.Context, spec pointproto.Spec) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := &task{spec: spec, done: make(chan struct{})}
	s.mu.Lock()
	if s.shut {
		s.mu.Unlock()
		return nil, errClosed
	}
	s.queue = append(s.queue, t)
	s.failIfAllDownLocked()
	s.cond.Broadcast()
	s.mu.Unlock()

	var timeout <-chan time.Time
	if s.cfg.PointTimeout > 0 {
		tm := time.NewTimer(s.cfg.PointTimeout)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case <-t.done:
		return t.payload, t.err
	case <-ctx.Done():
		return s.abandon(t, ctx.Err())
	case <-timeout:
		return s.abandon(t, &CrashError{Kind: CrashTimeout,
			Detail: fmt.Sprintf("no result within the %v point budget", s.cfg.PointTimeout)})
	}
}

// abandon gives up a point's slot: a queued point leaves the queue, an
// in-flight one leaves its executor (a local worker is SIGKILLed, a remote
// node's eventual result becomes an orphan). A result that raced in wins.
func (s *Supervisor) abandon(t *task, err error) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-t.done:
		return t.payload, t.err
	default:
	}
	if n := t.node; n != nil {
		delete(n.inflight, t.id)
		if n.link != nil && n.link.proc != nil {
			n.link.proc.kill()
		}
	} else {
		for i, q := range s.queue {
			if q == t {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
	}
	if ce, ok := err.(*CrashError); ok {
		s.cfg.Metrics.Counter("supervisor.crashes." + ce.Kind.String()).Inc()
	}
	finish(t, nil, err)
	s.cond.Broadcast()
	return nil, err
}

// Close fails every unresolved point, kills local workers, drops
// connections, and waits for every supervisor goroutine to exit.
// Idempotent.
func (s *Supervisor) Close() {
	s.once.Do(func() {
		close(s.closed)
		s.mu.Lock()
		s.shut = true
		for _, t := range s.queue {
			finish(t, nil, errClosed)
		}
		s.queue = nil
		for _, n := range s.nodes {
			for id, t := range n.inflight {
				delete(n.inflight, id)
				finish(t, nil, errClosed)
			}
			if n.link != nil {
				n.link.abort()
			}
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	s.wg.Wait()
}

// nodeLoop is one executor's lifecycle: wait for demand, start, serve
// until death, classify, back off, and again — until the supervisor closes
// or the executor retires.
func (s *Supervisor) nodeLoop(n *node) {
	defer s.wg.Done()
	attempt := 0
	for {
		if attempt > 0 && !sleepClosed(s.closed, restartBackoff(n.idx, attempt)) {
			return
		}
		if !s.awaitDemand(n) {
			return
		}
		l, hello, ce := s.connect(n)
		if ce != nil {
			attempt++
			s.died(n, ce)
			continue
		}
		gen, ok := s.install(n, hello)
		if !ok {
			l.teardown()
			return
		}
		attempt = 1 // a completed handshake restarts the backoff schedule
		s.wg.Add(1)
		go s.sender(n, gen, l)
		err := s.readLoop(n, l)
		if s.departed(n, l) {
			return
		}
		s.died(n, s.classify(l, err))
	}
}

// awaitDemand blocks until this executor should start: a point is queued
// that no connected or starting executor has capacity for, and no
// lower-indexed executor is waiting to take it. It reports false once the
// supervisor closes or the executor retires.
func (s *Supervisor) awaitDemand(n *node) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n.waiting = true
	for !s.shut && !n.down {
		if s.needExecutorLocked() && s.firstWaitingLocked() == n {
			n.waiting, n.starting = false, true
			s.cond.Broadcast() // the next waiter re-counts with this one starting
			return true
		}
		s.cond.Wait()
	}
	return false
}

// needExecutorLocked reports whether the queue outgrows the free capacity
// of connected executors plus one slot per executor already starting.
func (s *Supervisor) needExecutorLocked() bool {
	free := 0
	for _, n := range s.nodes {
		if n.up && !n.down {
			free += n.capacity - len(n.inflight)
		}
		if n.starting {
			free++
		}
	}
	return len(s.queue) > free
}

func (s *Supervisor) firstWaitingLocked() *node {
	for _, n := range s.nodes {
		if n.waiting && !n.down {
			return n
		}
	}
	return nil
}

// connect starts the executor — spawns the worker or dials the node — and
// consumes its node-hello. Every failure before the handshake completes
// is CrashSpawn, whatever went wrong.
func (s *Supervisor) connect(n *node) (*link, pointproto.NodeHello, *CrashError) {
	var hello pointproto.NodeHello
	fail := func(err error) (*link, pointproto.NodeHello, *CrashError) {
		return nil, hello, &CrashError{Kind: CrashSpawn, Detail: err.Error()}
	}
	s.cfg.Metrics.Counter("supervisor.spawns").Inc()
	l := &link{}
	if n.addr == "" {
		p, c, err := spawn(s.cfg)
		if err != nil {
			return fail(err)
		}
		l.conn, l.proc = c, p
	} else {
		c, err := net.DialTimeout("tcp", n.addr, handshakeTimeout)
		if err != nil {
			return fail(err)
		}
		l.conn = c
	}
	l.br = bufio.NewReader(l.conn)
	s.mu.Lock()
	if s.shut {
		s.mu.Unlock()
		l.abort()
		l.teardown()
		return fail(errClosed)
	}
	n.link = l // Close can now interrupt the handshake
	s.mu.Unlock()

	err := func() error {
		l.conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
		typ, payload, err := pointproto.ReadFrame(l.br)
		if err != nil {
			return err
		}
		if typ != pointproto.MsgNodeHello {
			return fmt.Errorf("first frame was %s, want node-hello", typ)
		}
		if hello, err = pointproto.UnmarshalNodeHello(payload); err != nil {
			return err
		}
		if hello.Version != pointproto.Version {
			return fmt.Errorf("executor speaks protocol %d, supervisor %d", hello.Version, pointproto.Version)
		}
		return nil
	}()
	if err != nil {
		l.abort()
		return fail(fmt.Errorf("handshake: %v%s", err, l.teardown()))
	}
	return l, hello, nil
}

// install publishes a handshaken executor: bumps the generation (retiring
// any prior sender), records capacity and identity, and wakes the queue.
func (s *Supervisor) install(n *node, hello pointproto.NodeHello) (uint64, bool) {
	s.mu.Lock()
	n.starting = false
	if s.shut || n.down {
		s.mu.Unlock()
		return 0, false
	}
	n.gen++
	gen := n.gen
	n.up = true
	if hello.Name != "" {
		n.name = hello.Name
	}
	n.capacity = max(int(hello.Capacity), 1)
	s.cfg.Metrics.Gauge("supervisor.nodes.up").Add(1)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.event(n, "up", fmt.Sprintf("pid=%d capacity=%d goos=%s goarch=%s cpu=%q go=%s gomaxprocs=%d numcpu=%d",
		hello.PID, hello.Capacity, hello.GOOS, hello.GOARCH, hello.CPU, hello.GoVersion, hello.GOMAXPROCS, hello.NumCPU))
	return gen, true
}

// sender moves queued points onto the executor's connection, up to its
// declared capacity. It exits when the connection's generation is
// superseded, the executor retires, or a write fails (closing the
// connection so the reader classifies the death).
func (s *Supervisor) sender(n *node, gen uint64, l *link) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for {
			if s.shut || n.gen != gen || n.down {
				s.mu.Unlock()
				return
			}
			if len(n.inflight) < n.capacity && len(s.queue) > 0 {
				break
			}
			s.cond.Wait()
		}
		t := s.queue[0]
		s.queue[0] = nil
		s.queue = s.queue[1:]
		t.node, t.id = n, n.nextID
		n.inflight[t.id] = t
		n.nextID++
		frame := pointproto.MarshalTask(pointproto.Task{ID: t.id, Spec: t.spec})
		s.mu.Unlock()
		l.conn.SetWriteDeadline(time.Now().Add(s.cfg.HeartbeatTimeout))
		if err := pointproto.WriteFrame(l.conn, pointproto.MsgTask, frame); err != nil {
			l.conn.Close()
			return
		}
	}
}

// readLoop consumes frames until the connection dies, with the watchdog as
// a per-frame read deadline, and returns what killed it.
func (s *Supervisor) readLoop(n *node, l *link) error {
	for {
		l.conn.SetReadDeadline(time.Now().Add(s.cfg.HeartbeatTimeout))
		typ, payload, err := pointproto.ReadFrame(l.br)
		if err != nil {
			return err
		}
		switch typ {
		case pointproto.MsgHeartbeat:
			s.cfg.Metrics.Counter("supervisor.heartbeats").Inc()
		case pointproto.MsgTaskResult:
			res, err := pointproto.UnmarshalTaskResult(payload)
			if err != nil {
				return err
			}
			s.complete(n, res)
		case pointproto.MsgNodeGoodbye:
			s.draining(n)
		default:
			return fmt.Errorf("supervisor: unexpected %s frame", typ)
		}
	}
}

// complete resolves the in-flight point a result answers. A result whose
// ID is no longer in flight (the point was abandoned) is an orphan:
// counted and dropped.
func (s *Supervisor) complete(n *node, res pointproto.TaskResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := n.inflight[res.ID]
	if !ok {
		s.cfg.Metrics.Counter("supervisor.orphans").Inc()
		return
	}
	delete(n.inflight, res.ID)
	n.breaker.Record(false)
	s.cfg.Metrics.Counter("supervisor.tasks.ok").Inc()
	s.cfg.Metrics.Counter(fmt.Sprintf("supervisor.node.%d.tasks", n.idx)).Inc()
	finish(t, res.Payload, nil)
	s.cond.Broadcast()
}

// classify reduces a dead connection to a CrashError, or nil when the
// supervisor itself killed the local worker (an abandoned point or Close).
// Read-side evidence decides for TCP nodes: a deadline is a partition, a
// closed or reset connection a disconnect, unparseable bytes a protocol
// violation. A local worker is SIGKILLed when silent (a hang) or garbled,
// and otherwise its wait status speaks.
func (s *Supervisor) classify(l *link, err error) *CrashError {
	kind := CrashProtocol
	var ne net.Error
	var oe *net.OpError
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()):
		kind = CrashPartition
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) || errors.As(err, &oe):
		kind = CrashDisconnect
	}
	if l.proc == nil {
		l.teardown()
		return &CrashError{Kind: kind, Detail: err.Error()}
	}
	if kind == CrashDisconnect {
		// The worker closed its stdout: it is exiting, or dead.
		killed := l.proc.killed.Load()
		l.teardown()
		if killed {
			return nil
		}
		return l.proc.crash(s.cfg.MemLimit)
	}
	l.abort()
	status := l.teardown()
	if kind == CrashPartition {
		return &CrashError{Kind: CrashHang,
			Detail: fmt.Sprintf("no frame for %v; worker killed%s", s.cfg.HeartbeatTimeout, status)}
	}
	return &CrashError{Kind: CrashProtocol, Detail: fmt.Sprintf("%v%s", err, status)}
}

// died handles one executor death, applying the death rule (see
// CrashKind.requeues) to its in-flight points, and retires the executor
// if its breaker opened. ce is nil for a death the supervisor caused on
// purpose: its points are requeued without spending their one requeue.
func (s *Supervisor) died(n *node, ce *CrashError) {
	s.mu.Lock()
	wasUp := n.up
	n.up, n.starting, n.link = false, false, nil
	n.gen++
	if s.shut {
		s.mu.Unlock()
		return
	}
	if wasUp {
		s.cfg.Metrics.Gauge("supervisor.nodes.up").Add(-1)
		s.cfg.Metrics.Counter("supervisor.restarts").Inc()
	}
	tripped := false
	if ce != nil {
		s.lastCrash = ce
		s.cfg.Metrics.Counter("supervisor.crashes." + ce.Kind.String()).Inc()
		if ce.Kind.requeues() {
			tripped = n.breaker.Record(true)
		}
	}
	// Retire the executor before failing its points: a caller woken by a
	// failed point then already sees the breaker open.
	if tripped {
		n.down = true
		s.cfg.Metrics.Counter("supervisor.breakers.opened").Inc()
	}
	var requeue []*task
	for _, id := range sortedIDs(n.inflight) {
		t := n.inflight[id]
		delete(n.inflight, id)
		switch {
		case ce == nil:
		case !ce.Kind.requeues() || t.requeued:
			finish(t, nil, ce)
			continue
		default:
			t.requeued = true
			s.cfg.Metrics.Counter("supervisor.requeues").Inc()
		}
		t.node = nil
		requeue = append(requeue, t)
	}
	s.queue = append(requeue, s.queue...)
	s.failIfAllDownLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	if ce == nil {
		return
	}
	s.event(n, "down", ce.Error())
	if tripped {
		s.event(n, "breaker-open", fmt.Sprintf("%d consecutive deaths; executor is down for the run", TripThreshold))
	}
}

// draining handles a node's goodbye: it answered every point it accepted
// and is leaving on purpose, so it is retired from the queue with no crash
// accounting.
func (s *Supervisor) draining(n *node) {
	s.mu.Lock()
	if s.shut || n.draining {
		s.mu.Unlock()
		return
	}
	n.draining, n.down = true, true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.event(n, "draining", "goodbye received")
}

// departed finishes a drained executor once its connection ends: it
// reports true (and cleans up without crash accounting) when the executor
// had said goodbye, false to let died classify a real death. A straggler
// sent in the race before the goodbye is requeued like queued work.
func (s *Supervisor) departed(n *node, l *link) bool {
	s.mu.Lock()
	if !n.draining {
		s.mu.Unlock()
		return false
	}
	if n.up {
		s.cfg.Metrics.Gauge("supervisor.nodes.up").Add(-1)
	}
	n.up, n.link = false, nil
	n.gen++
	var move []*task
	for _, id := range sortedIDs(n.inflight) {
		t := n.inflight[id]
		delete(n.inflight, id)
		t.node = nil
		move = append(move, t)
	}
	s.queue = append(move, s.queue...)
	s.failIfAllDownLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	l.teardown()
	s.event(n, "drained", "clean departure: in-flight work answered, connection closed")
	s.cfg.Metrics.Counter("supervisor.drains").Inc()
	return true
}

// failIfAllDownLocked fails every queued point once no executor can ever
// take it: there is nothing to wait for.
func (s *Supervisor) failIfAllDownLocked() {
	for _, n := range s.nodes {
		if !n.down {
			return
		}
	}
	err := error(&CrashError{Kind: CrashSpawn, Detail: "no nodes available"})
	if s.lastCrash != nil {
		err = fmt.Errorf("supervisor: no nodes available (last crash: %w)", s.lastCrash)
	}
	for _, t := range s.queue {
		finish(t, nil, err)
	}
	s.queue = nil
}

// finish resolves a task; the caller has removed it from the queue or its
// executor's in-flight map, under Supervisor.mu, so it happens once.
func finish(t *task, payload []byte, err error) {
	t.payload, t.err = payload, err
	close(t.done)
}

// event reports an executor lifecycle transition to the log and the
// observer.
func (s *Supervisor) event(n *node, event, detail string) {
	s.mu.Lock()
	name := n.name
	s.mu.Unlock()
	fmt.Fprintf(s.cfg.Stderr, "supervisor: %s %s: %s\n", name, event, detail)
	if s.cfg.OnNodeEvent != nil {
		s.cfg.OnNodeEvent(name, event, detail)
	}
}

// sortedIDs orders an in-flight map's keys, so requeue order does not
// depend on map iteration.
func sortedIDs(m map[uint64]*task) []uint64 {
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// restartBackoff returns restart n's delay: base<<(n-1) capped, scaled by
// a deterministic jitter in [0.5, 1.5) hashed from (executor, attempt).
func restartBackoff(idx, attempt int) time.Duration {
	d := restartBackoffBase << uint(attempt-1)
	if d > restartBackoffMax || d <= 0 {
		d = restartBackoffMax
	}
	h := uint64(14695981039346656037)
	h = (h ^ uint64(idx)) * 1099511628211
	h = (h ^ uint64(attempt)) * 1099511628211
	jitter := 0.5 + float64(h>>11)/float64(1<<53)
	return time.Duration(float64(d) * jitter)
}

// sleepClosed sleeps d, returning false early if closed closes.
func sleepClosed(closed <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-closed:
		return false
	}
}
