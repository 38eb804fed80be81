// Package fleet distributes characterization points across remote executor
// nodes over TCP. It is the socket sibling of internal/supervisor: the same
// framed pointproto wire format, the same crash taxonomy and circuit
// breakers, but multiplexed — each node connection opens with a NodeHello
// carrying identity, capacity, and benchstat-style environment capture,
// then carries many Task frames at once, with TaskResult frames coming back
// in whatever order points finish.
//
// The coordinator shards work by a caller-supplied shard key (the
// experiments layer uses figure|sweep-group, so a figure's heap sweep lands
// on one node) and steals across nodes under skew: an idle node takes a shard-coherent batch from the tail of
// the longest queue, degrading to single points when queues run shallow.
// Failure handling mirrors the supervisor: a per-frame read deadline is the
// heartbeat watchdog (an open-but-silent connection classifies as
// CrashPartition, a closed one as CrashDisconnect), every node death feeds
// a consecutive-failure breaker, and a dead node's inflight points are
// requeued exactly once — a point whose second node also dies fails with
// the crash, mirroring the dispatcher's abortive-failure rule.
//
// Determinism is load-bearing, as everywhere in this repository: nodes
// compute points through the exact same resilience stack as the in-process
// path, result payloads are memoized by the caller's content-addressed key,
// and reconnect backoff is deterministically jittered — so a figure
// rendered across N nodes under steals and disconnects is byte-identical
// to the single-process run at the same seed.
package fleet

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
	"jvmpower/internal/supervisor"
)

// Defaults. The node heartbeat interval (serve side) must stay well under
// the coordinator's heartbeat timeout or idle nodes classify as partitioned.
const (
	defaultHeartbeatTimeout = 5 * time.Second
	defaultDialTimeout      = 5 * time.Second
	defaultBreakerThreshold = 3

	reconnectBackoffBase = 50 * time.Millisecond
	reconnectBackoffMax  = 2 * time.Second
)

var errClosed = errors.New("fleet: coordinator closed")

// Config configures a Coordinator.
type Config struct {
	// Nodes are the executor addresses (host:port) to dial.
	Nodes []string
	// Metrics receives fleet.* instruments. Defaults to a fresh registry.
	Metrics *metrics.Registry
	// HeartbeatTimeout is the per-frame read deadline: a connection silent
	// this long is declared partitioned. It doubles as the write deadline,
	// so a node that stops draining its socket (the slow-reader stall)
	// fails the same watchdog. Defaults to 5s.
	HeartbeatTimeout time.Duration
	// DialTimeout bounds each connection attempt. Defaults to 5s.
	DialTimeout time.Duration
	// TaskTimeout bounds one point's wall time across the fleet; a point
	// with no result in budget fails as CrashTimeout (the node may still
	// be heartbeating — this catches a point spinning, not a node dying).
	// Zero disables.
	TaskTimeout time.Duration
	// BreakerThreshold opens a node's breaker after this many consecutive
	// deaths; the node is then permanently down for the run (no half-open
	// timer — reopening on wall clock would make output depend on
	// scheduling). 0 means the default (3); negative disables.
	BreakerThreshold int
	// Stderr, when set, receives node lifecycle log lines.
	Stderr io.Writer
	// OnNodeEvent, when set, observes node lifecycle transitions
	// (event "up", "down", "breaker-open", "draining", "drained") for
	// journaling.
	OnNodeEvent func(node, event, detail string)
}

// outcome is a resolved task: a result payload or a terminal error.
type outcome struct {
	payload []byte
	err     error
}

// task is one scheduled point. done closes exactly once, when the outcome
// is set; requeued marks that the task already survived one node death.
type task struct {
	key      string
	shard    string
	spec     pointproto.Spec
	owner    *node // node whose queue or inflight map holds it
	requeued bool
	done     chan struct{}
	out      outcome
}

// node is one configured executor and its connection lifecycle state.
// All fields below the breaker are guarded by Coordinator.mu.
type node struct {
	idx     int
	addr    string
	breaker *supervisor.Breaker

	name     string
	capacity int
	up       bool
	down     bool // permanent: breaker opened or node drained
	draining bool // node announced graceful drain (MsgNodeGoodbye pending EOF)
	gen      uint64
	conn     net.Conn
	nextID   uint64
	queue    []*task
	inflight map[uint64]*task
}

// Coordinator owns the fleet: one lifecycle goroutine per configured node,
// a shared scheduler state under one mutex, and a condition variable that
// wakes senders when work or capacity appears.
type Coordinator struct {
	cfg    Config
	nodes  []*node
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	mu        sync.Mutex
	cond      *sync.Cond
	shut      bool
	tasks     map[string]*task // pending or inflight, by dedupe key
	completed map[string][]byte
	lastCrash error
}

// New starts a coordinator dialing every configured node. Callers must
// Close it to release connections and goroutines.
func New(cfg Config) *Coordinator {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = defaultHeartbeatTimeout
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = defaultDialTimeout
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = defaultBreakerThreshold
	}
	c := &Coordinator{
		cfg:       cfg,
		closed:    make(chan struct{}),
		tasks:     make(map[string]*task),
		completed: make(map[string][]byte),
	}
	c.cond = sync.NewCond(&c.mu)
	for i, addr := range cfg.Nodes {
		n := &node{
			idx:      i,
			addr:     addr,
			name:     addr,
			capacity: 1,
			breaker:  supervisor.NewBreaker(cfg.BreakerThreshold),
			inflight: make(map[uint64]*task),
		}
		c.nodes = append(c.nodes, n)
		c.wg.Add(1)
		go c.nodeLoop(n)
	}
	return c
}

// Metrics returns the coordinator's registry (the configured one, or the
// registry New defaulted in).
func (c *Coordinator) Metrics() *metrics.Registry { return c.cfg.Metrics }

// Run executes one point on the fleet and returns its opaque result
// payload. key is the content-addressed dedupe key: a key that already
// succeeded returns the memoized payload without executing again, and
// concurrent calls for one key coalesce onto a single execution. shard
// groups points for placement and batch stealing. A failed key is not
// memoized — the caller decides whether to retry.
func (c *Coordinator) Run(ctx context.Context, shard, key string, spec pointproto.Spec) ([]byte, error) {
	c.mu.Lock()
	if c.shut {
		c.mu.Unlock()
		return nil, errClosed
	}
	if p, ok := c.completed[key]; ok {
		c.cfg.Metrics.Counter("fleet.dedupe.hits").Inc()
		c.mu.Unlock()
		return p, nil
	}
	if t, ok := c.tasks[key]; ok {
		c.cfg.Metrics.Counter("fleet.dedupe.hits").Inc()
		c.mu.Unlock()
		return c.wait(ctx, t, nil)
	}
	t := &task{key: key, shard: shard, spec: spec, done: make(chan struct{})}
	if !c.enqueueLocked(t, nil) {
		err := t.out.err
		c.mu.Unlock()
		return nil, err
	}
	c.tasks[key] = t
	c.cond.Broadcast()
	c.mu.Unlock()

	var timeout <-chan time.Time
	if c.cfg.TaskTimeout > 0 {
		tm := time.NewTimer(c.cfg.TaskTimeout)
		defer tm.Stop()
		timeout = tm.C
	}
	return c.wait(ctx, t, timeout)
}

func (c *Coordinator) wait(ctx context.Context, t *task, timeout <-chan time.Time) ([]byte, error) {
	select {
	case <-t.done:
		return t.out.payload, t.out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-timeout:
		return c.timeOut(t)
	}
}

// timeOut resolves a task whose wall-time budget expired. A result that
// raced in wins; otherwise the task fails as CrashTimeout and any late
// result counts as an orphan.
func (c *Coordinator) timeOut(t *task) ([]byte, error) {
	c.mu.Lock()
	select {
	case <-t.done:
		c.mu.Unlock()
		return t.out.payload, t.out.err
	default:
	}
	c.removeLocked(t)
	ce := &supervisor.CrashError{
		Kind:   supervisor.CrashTimeout,
		Detail: fmt.Sprintf("fleet: no result within %v", c.cfg.TaskTimeout),
	}
	c.cfg.Metrics.Counter("fleet.crashes." + supervisor.CrashTimeout.String()).Inc()
	c.failLocked(t, ce)
	c.mu.Unlock()
	return nil, ce
}

// Close fails every unresolved task, tears down connections, and waits for
// all fleet goroutines to exit. Idempotent.
func (c *Coordinator) Close() {
	c.once.Do(func() {
		close(c.closed)
		c.mu.Lock()
		c.shut = true
		for _, n := range c.nodes {
			if n.conn != nil {
				n.conn.Close()
			}
			for id, t := range n.inflight {
				delete(n.inflight, id)
				c.failLocked(t, errClosed)
			}
			for _, t := range n.queue {
				c.failLocked(t, errClosed)
			}
			n.queue = nil
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	c.wg.Wait()
}

// nodeLoop is one node's connection lifecycle: dial, handshake, serve until
// death, classify, backoff, reconnect — until the coordinator closes or the
// node's breaker opens.
func (c *Coordinator) nodeLoop(n *node) {
	defer c.wg.Done()
	restarts := 0
	for {
		select {
		case <-c.closed:
			return
		default:
		}
		c.mu.Lock()
		down := n.down
		c.mu.Unlock()
		if down {
			return
		}
		if restarts > 0 && !sleepClosed(c.closed, reconnectBackoff(n.idx, restarts)) {
			return
		}
		conn, br, hello, ce := c.dial(n)
		if ce != nil {
			restarts++
			c.nodeFailed(n, nil, ce)
			continue
		}
		gen, ok := c.install(n, conn, hello)
		if !ok {
			conn.Close()
			return
		}
		restarts = 1 // a fresh connection restarts the backoff schedule
		c.wg.Add(1)
		go c.sender(n, gen)
		kind, err := c.readLoop(n, conn, br)
		if c.nodeDeparted(n, conn) {
			return
		}
		c.nodeFailed(n, conn, &supervisor.CrashError{Kind: kind, Detail: err.Error()})
	}
}

// dial connects and consumes the node's handshake. Network failures here
// classify as CrashSpawn (the node never completed the handshake, the
// pipe-transport meaning of spawn); a handshake that parses wrong — bad
// version, wrong frame — is CrashProtocol.
func (c *Coordinator) dial(n *node) (net.Conn, *bufio.Reader, pointproto.NodeHello, *supervisor.CrashError) {
	fail := func(kind supervisor.CrashKind, err error) (net.Conn, *bufio.Reader, pointproto.NodeHello, *supervisor.CrashError) {
		return nil, nil, pointproto.NodeHello{}, &supervisor.CrashError{Kind: kind, Detail: err.Error()}
	}
	conn, err := net.DialTimeout("tcp", n.addr, c.cfg.DialTimeout)
	if err != nil {
		return fail(supervisor.CrashSpawn, err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
	typ, payload, err := pointproto.ReadFrame(br)
	if err != nil {
		conn.Close()
		return fail(supervisor.CrashSpawn, fmt.Errorf("handshake: %w", err))
	}
	if typ != pointproto.MsgNodeHello {
		conn.Close()
		return fail(supervisor.CrashProtocol, fmt.Errorf("handshake: unexpected %s frame", typ))
	}
	hello, err := pointproto.UnmarshalNodeHello(payload)
	if err != nil {
		conn.Close()
		return fail(supervisor.CrashProtocol, fmt.Errorf("handshake: %w", err))
	}
	if hello.Version != pointproto.Version {
		conn.Close()
		return fail(supervisor.CrashProtocol,
			fmt.Errorf("handshake: node speaks protocol %d, coordinator %d", hello.Version, pointproto.Version))
	}
	return conn, br, hello, nil
}

// install publishes a live connection: bumps the generation (stopping any
// prior sender), records capacity and identity, and wakes the scheduler.
func (c *Coordinator) install(n *node, conn net.Conn, hello pointproto.NodeHello) (uint64, bool) {
	c.mu.Lock()
	if c.shut || n.down {
		c.mu.Unlock()
		return 0, false
	}
	n.gen++
	gen := n.gen
	n.conn = conn
	n.up = true
	if hello.Name != "" {
		n.name = hello.Name
	}
	n.capacity = int(hello.Capacity)
	if n.capacity < 1 {
		n.capacity = 1
	}
	c.cfg.Metrics.Gauge("fleet.nodes.up").Add(1)
	c.cond.Broadcast()
	c.mu.Unlock()
	c.event(n, "up", fmt.Sprintf("pid=%d capacity=%d goos=%s goarch=%s cpu=%q go=%s gomaxprocs=%d numcpu=%d",
		hello.PID, hello.Capacity, hello.GOOS, hello.GOARCH, hello.CPU, hello.GoVersion, hello.GOMAXPROCS, hello.NumCPU))
	return gen, true
}

// sender drains the node's queue (stealing when it runs dry) onto the
// connection, capped at the node's declared capacity. It exits when the
// connection's generation is superseded, the node goes down, or a write
// fails (closing the connection so the reader classifies the death).
func (c *Coordinator) sender(n *node, gen uint64) {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		var t *task
		for {
			if c.shut || n.gen != gen || n.down {
				c.mu.Unlock()
				return
			}
			if len(n.inflight) < n.capacity {
				if t = c.takeWorkLocked(n); t != nil {
					break
				}
			}
			c.cond.Wait()
		}
		id := n.nextID
		n.nextID++
		n.inflight[id] = t
		t.owner = n
		conn := n.conn
		c.mu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
		frame := pointproto.MarshalTask(pointproto.Task{ID: id, Spec: t.spec})
		if err := pointproto.WriteFrame(conn, pointproto.MsgTask, frame); err != nil {
			conn.Close() // the reader unblocks, classifies, and requeues
			return
		}
	}
}

// readLoop consumes frames until the connection dies, applying the
// heartbeat watchdog as a per-frame read deadline. It returns the death's
// classification: deadline → partition, closed/reset → disconnect,
// unparseable bytes → protocol.
func (c *Coordinator) readLoop(n *node, conn net.Conn, br *bufio.Reader) (supervisor.CrashKind, error) {
	for {
		conn.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
		typ, payload, err := pointproto.ReadFrame(br)
		if err != nil {
			return classifyReadErr(err), err
		}
		switch typ {
		case pointproto.MsgHeartbeat:
		case pointproto.MsgTaskResult:
			res, err := pointproto.UnmarshalTaskResult(payload)
			if err != nil {
				return supervisor.CrashProtocol, err
			}
			c.complete(n, res)
		case pointproto.MsgNodeGoodbye:
			// Graceful drain announcement: the node has answered every
			// task it accepted and will close the connection next. Stop
			// assigning it work now; the EOF that follows is a clean
			// departure, not a disconnect crash.
			c.nodeDraining(n)
		default:
			return supervisor.CrashProtocol, fmt.Errorf("fleet: unexpected %s frame", typ)
		}
	}
}

// complete resolves the inflight task a result answers. A result whose ID
// is no longer inflight (the task timed out, or was requeued after this
// node's earlier death) is an orphan: counted and dropped, never applied —
// the requeued execution's result is the one that binds.
func (c *Coordinator) complete(n *node, res pointproto.TaskResult) {
	c.mu.Lock()
	t, ok := n.inflight[res.ID]
	if !ok {
		c.cfg.Metrics.Counter("fleet.orphans").Inc()
		c.mu.Unlock()
		return
	}
	delete(n.inflight, res.ID)
	t.out = outcome{payload: res.Payload}
	c.completed[t.key] = res.Payload
	delete(c.tasks, t.key)
	n.breaker.Record(false)
	c.cfg.Metrics.Counter("fleet.points").Inc()
	c.cfg.Metrics.Counter(fmt.Sprintf("fleet.node.%d.points", n.idx)).Inc()
	close(t.done)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// nodeFailed handles one connection death: classify into metrics, feed the
// breaker, requeue the node's work, and mark the node permanently down if
// the breaker opened. Inflight tasks requeue exactly once — a task whose
// second node also dies fails with that death's CrashError. Queued-but-
// unsent tasks migrate freely; the crash never touched them.
func (c *Coordinator) nodeFailed(n *node, conn net.Conn, ce *supervisor.CrashError) {
	if conn != nil {
		conn.Close()
	}
	c.mu.Lock()
	if c.shut {
		n.up = false
		n.gen++
		n.conn = nil
		c.mu.Unlock()
		return
	}
	if n.up {
		c.cfg.Metrics.Gauge("fleet.nodes.up").Add(-1)
	}
	n.up = false
	n.gen++
	n.conn = nil
	c.lastCrash = ce
	c.cfg.Metrics.Counter("fleet.crashes." + ce.Kind.String()).Inc()
	tripped := n.breaker.Record(true)
	if tripped {
		n.down = true
		c.cfg.Metrics.Counter("fleet.breakers.opened").Inc()
	}
	var requeue []*task
	for id, t := range n.inflight {
		delete(n.inflight, id)
		if t.requeued {
			c.failLocked(t, ce)
			continue
		}
		t.requeued = true
		c.cfg.Metrics.Counter("fleet.requeues").Inc()
		requeue = append(requeue, t)
	}
	// The inflight map's iteration order is random; sort so requeue
	// placement is deterministic.
	sort.Slice(requeue, func(i, j int) bool { return requeue[i].key < requeue[j].key })
	migrate := n.queue
	n.queue = nil
	for _, t := range requeue {
		c.enqueueLocked(t, n)
	}
	for _, t := range migrate {
		c.enqueueLocked(t, n)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.event(n, "down", ce.Error())
	if tripped {
		c.event(n, "breaker-open", fmt.Sprintf("%d consecutive deaths; node is down for the run", c.cfg.BreakerThreshold))
	}
}

// nodeDraining handles a node's MsgNodeGoodbye: the node finished its
// in-flight work and is leaving deliberately. The node is retired from
// placement (down, no reconnect) and its queued-but-unsent tasks migrate
// to the rest of the fleet — with no crash counters, no breaker feed, and
// no requeue accounting, because nothing crashed and nothing started.
func (c *Coordinator) nodeDraining(n *node) {
	c.mu.Lock()
	if c.shut || n.draining {
		c.mu.Unlock()
		return
	}
	n.draining = true
	n.down = true // no new placement; the sender goroutine unwinds
	migrate := n.queue
	n.queue = nil
	for _, t := range migrate {
		c.enqueueLocked(t, n)
	}
	if len(migrate) > 0 {
		c.cfg.Metrics.Counter("fleet.drain.migrated").Add(int64(len(migrate)))
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.event(n, "draining", fmt.Sprintf("goodbye received; %d queued task(s) migrated", len(migrate)))
}

// nodeDeparted finishes a drained node's lifecycle once its connection
// unwinds: reports true (and cleans up without any crash accounting) when
// the node had announced drain, false to let nodeFailed classify a real
// death. In the clean sequence nothing is left inflight — the node answers
// every accepted task before its goodbye — but a straggler assigned in the
// race window migrates like queued work, again without crash counters.
func (c *Coordinator) nodeDeparted(n *node, conn net.Conn) bool {
	c.mu.Lock()
	if !n.draining {
		c.mu.Unlock()
		return false
	}
	conn.Close()
	if n.up {
		c.cfg.Metrics.Gauge("fleet.nodes.up").Add(-1)
	}
	n.up = false
	n.gen++
	n.conn = nil
	var move []*task
	for id, t := range n.inflight {
		delete(n.inflight, id)
		move = append(move, t)
	}
	sort.Slice(move, func(i, j int) bool { return move[i].key < move[j].key })
	for _, t := range move {
		c.enqueueLocked(t, n)
	}
	if len(move) > 0 {
		c.cfg.Metrics.Counter("fleet.drain.migrated").Add(int64(len(move)))
	}
	c.cfg.Metrics.Counter("fleet.drains").Inc()
	c.cond.Broadcast()
	c.mu.Unlock()
	c.event(n, "drained", "clean departure: in-flight work answered, connection closed")
	return true
}

// failLocked resolves a task with a terminal error. Failures are not
// memoized: the key leaves the pending map so a caller may retry.
func (c *Coordinator) failLocked(t *task, err error) {
	select {
	case <-t.done:
		return
	default:
	}
	t.out = outcome{err: err}
	delete(c.tasks, t.key)
	c.cfg.Metrics.Counter("fleet.failures").Inc()
	close(t.done)
}

// event reports a node lifecycle transition to the log and the observer.
func (c *Coordinator) event(n *node, event, detail string) {
	c.mu.Lock()
	name := n.name
	c.mu.Unlock()
	if c.cfg.Stderr != nil {
		fmt.Fprintf(c.cfg.Stderr, "fleet: node %s %s: %s\n", name, event, detail)
	}
	if c.cfg.OnNodeEvent != nil {
		c.cfg.OnNodeEvent(name, event, detail)
	}
}

// classifyReadErr reduces a connection read failure to a crash kind: a
// deadline (nothing heard within the heartbeat budget) is a partition, a
// closed or reset connection is a disconnect, and a live connection
// delivering unparseable bytes is a protocol violation.
func classifyReadErr(err error) supervisor.CrashKind {
	var ne net.Error
	if (errors.As(err, &ne) && ne.Timeout()) || errors.Is(err, os.ErrDeadlineExceeded) {
		return supervisor.CrashPartition
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return supervisor.CrashDisconnect
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		return supervisor.CrashDisconnect
	}
	return supervisor.CrashProtocol
}

// reconnectBackoff returns reconnect n's delay: base<<n capped, scaled by
// a deterministic jitter in [0.5, 1.5) hashed from (node, attempt) —
// the supervisor's restart schedule, transplanted.
func reconnectBackoff(nodeIdx, attempt int) time.Duration {
	d := reconnectBackoffBase << uint(attempt-1)
	if d > reconnectBackoffMax || d <= 0 {
		d = reconnectBackoffMax
	}
	h := uint64(14695981039346656037)
	h = (h ^ uint64(nodeIdx)) * 1099511628211
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
