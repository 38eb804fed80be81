package fleet

import (
	"fmt"
	"hash/fnv"

	"jvmpower/internal/supervisor"
)

// Scheduling. Placement is shard-affine: a shard key (the experiments layer
// uses figure|sweep-group) hashes to a preferred node, so a figure's heap
// sweep lands together on one node. Affinity is advisory, not binding — an idle node steals from the longest
// queue, taking the shard-coherent batch at its tail (figure granularity)
// and degrading to single points as queues run shallow (point granularity
// under skew). All functions here run under Coordinator.mu.

// enqueueLocked places a task. Initial placement (exclude nil) is
// shard-affine; requeues and migrations go to the least-loaded node other
// than the dead one, falling back to the dead node's own queue when it is
// the only one left and may reconnect. With every node permanently down
// the task fails immediately — there is nothing to wait for.
func (c *Coordinator) enqueueLocked(t *task, exclude *node) bool {
	var target *node
	if exclude == nil {
		target = c.preferredLocked(t.shard)
	} else {
		target = c.leastLoadedLocked(exclude)
		if target == nil && !exclude.down {
			target = exclude
		}
	}
	if target == nil {
		err := error(&supervisor.CrashError{Kind: supervisor.CrashSpawn, Detail: "fleet: no nodes available"})
		if c.lastCrash != nil {
			err = fmt.Errorf("fleet: no nodes available (last crash: %w)", c.lastCrash)
		}
		c.failLocked(t, err)
		return false
	}
	t.owner = target
	target.queue = append(target.queue, t)
	return true
}

// preferredLocked hashes a shard to its affine node, walking forward past
// permanently-down nodes. Returns nil when the whole fleet is down.
func (c *Coordinator) preferredLocked(shard string) *node {
	if len(c.nodes) == 0 {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte(shard))
	start := int(h.Sum64() % uint64(len(c.nodes)))
	for j := 0; j < len(c.nodes); j++ {
		n := c.nodes[(start+j)%len(c.nodes)]
		if !n.down {
			return n
		}
	}
	return nil
}

// leastLoadedLocked returns the live node with the fewest queued+inflight
// tasks, excluding one; ties break on index for determinism.
func (c *Coordinator) leastLoadedLocked(exclude *node) *node {
	var best *node
	for _, n := range c.nodes {
		if n == exclude || n.down {
			continue
		}
		if best == nil || len(n.queue)+len(n.inflight) < len(best.queue)+len(best.inflight) {
			best = n
		}
	}
	return best
}

// takeWorkLocked returns the next task for a node: its own queue first,
// then a steal. A steal takes from the victim with the longest queue — the
// shard-coherent batch at the queue's tail (every trailing task sharing the
// tail's shard), capped at half the victim's queue, which is a single point
// when the victim runs shallow.
func (c *Coordinator) takeWorkLocked(n *node) *task {
	if len(n.queue) == 0 {
		c.stealLocked(n)
	}
	if len(n.queue) == 0 {
		return nil
	}
	t := n.queue[0]
	n.queue = n.queue[1:]
	return t
}

func (c *Coordinator) stealLocked(n *node) {
	var victim *node
	for _, v := range c.nodes {
		if v == n || len(v.queue) == 0 {
			continue
		}
		if victim == nil || len(v.queue) > len(victim.queue) {
			victim = v
		}
	}
	if victim == nil {
		return
	}
	q := victim.queue
	shard := q[len(q)-1].shard
	max := (len(q) + 1) / 2
	i := len(q) - 1
	for i > 0 && q[i-1].shard == shard && len(q)-(i-1) <= max {
		i--
	}
	batch := append([]*task(nil), q[i:]...)
	victim.queue = q[:i]
	for _, t := range batch {
		t.owner = n
	}
	n.queue = append(n.queue, batch...)
	c.cfg.Metrics.Counter("fleet.steals").Inc()
	c.cfg.Metrics.Counter("fleet.steals.points").Add(int64(len(batch)))
}

// removeLocked detaches a task from whichever queue or inflight map holds
// it (used by the task-timeout path, where the node is healthy but the
// point is not).
func (c *Coordinator) removeLocked(t *task) {
	n := t.owner
	if n == nil {
		return
	}
	for i, qt := range n.queue {
		if qt == t {
			n.queue = append(n.queue[:i], n.queue[i+1:]...)
			return
		}
	}
	for id, it := range n.inflight {
		if it == t {
			delete(n.inflight, id)
			c.cond.Broadcast() // capacity freed
			return
		}
	}
}
