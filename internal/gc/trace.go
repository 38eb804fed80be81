package gc

import "jvmpower/internal/heap"

// tracer implements worklist-based transitive closure over the live object
// graph, shared by all collectors. The per-object action (mark vs copy) is
// supplied by the caller; the tracer handles dedup via FlagMark (or, for
// SemiSpace's evacuating trace, the heap's forwarding state), worklist
// management, and counts what it scanned, which the collector prices once
// per phase (traceWork).
type tracer struct {
	h        *heap.Heap
	worklist []heap.Ref

	// follow decides whether a reference should be traced. Minor
	// collections restrict tracing to the nursery; full collections trace
	// everything. Nil means follow all.
	follow func(heap.Ref, *heap.Object) bool

	// visit runs once per newly reached object, before its children are
	// enqueued (e.g. copy it to to-space). May be nil.
	visit func(heap.Ref, *heap.Object)

	// objectsScanned and refsScanned count the objects scanned since the
	// last reset and the outgoing references they held.
	objectsScanned int64
	refsScanned    int64
}

// reset prepares the tracer for a new collection.
func (t *tracer) reset() {
	t.worklist = t.worklist[:0]
	t.objectsScanned, t.refsScanned = 0, 0
}

// enqueueRoot offers a root slot's reference to the trace.
func (t *tracer) enqueueRoot(slot *heap.Ref) {
	t.enqueue(*slot)
}

func (t *tracer) enqueue(r heap.Ref) {
	if r == heap.Null {
		return
	}
	o := t.h.Get(r)
	if o.Flags&heap.FlagMark != 0 {
		return
	}
	if t.follow != nil && !t.follow(r, o) {
		return
	}
	o.Flags |= heap.FlagMark
	if t.visit != nil {
		t.visit(r, o)
	}
	t.worklist = append(t.worklist, r)
}

// drain processes the worklist to exhaustion.
func (t *tracer) drain() {
	for len(t.worklist) > 0 {
		r := t.worklist[len(t.worklist)-1]
		t.worklist = t.worklist[:len(t.worklist)-1]
		t.scan(r)
	}
}

// drainN processes at most n objects and reports how many were scanned
// (incremental collectors).
func (t *tracer) drainN(n int64) int64 {
	var done int64
	for done < n && len(t.worklist) > 0 {
		r := t.worklist[len(t.worklist)-1]
		t.worklist = t.worklist[:len(t.worklist)-1]
		t.scan(r)
		done++
	}
	return done
}

func (t *tracer) scan(r heap.Ref) {
	o := t.h.Get(r)
	t.objectsScanned++
	refs := o.RefsIn(t.h)
	t.refsScanned += int64(len(refs))
	for _, c := range refs {
		t.enqueue(c)
	}
}

// forward is enqueue for an evacuating trace (SemiSpace, between
// heap.BeginEvacuation and EndEvacuation): the first reach of an object
// copies it into the heap's new table, visits the copy and queues it, and
// every reach rewrites the slot to the copy's Ref. The heap's forwarding
// state replaces the mark bit, and follow is not consulted.
func (t *tracer) forward(slot *heap.Ref) {
	if *slot == heap.Null {
		return
	}
	r, copied := t.h.Forward(*slot)
	*slot = r
	if copied {
		t.visit(r, t.h.Get(r))
		t.worklist = append(t.worklist, r)
	}
}

// drainForwarding is drain for an evacuating trace: the same depth-first
// order and counts as scan, with each child reached through its field slot
// so forward can rewrite it.
func (t *tracer) drainForwarding() {
	for len(t.worklist) > 0 {
		r := t.worklist[len(t.worklist)-1]
		t.worklist = t.worklist[:len(t.worklist)-1]
		t.objectsScanned++
		refs := t.h.Get(r).RefsIn(t.h)
		t.refsScanned += int64(len(refs))
		for i := range refs {
			t.forward(&refs[i])
		}
	}
}

// pending reports whether unscanned work remains.
func (t *tracer) pending() bool { return len(t.worklist) > 0 }

// gray enqueues an object mid-cycle (incremental-update write barrier).
func (t *tracer) gray(r heap.Ref) { t.enqueue(r) }
