package gc

import "jvmpower/internal/heap"

// tracer implements worklist-based transitive closure over the live object
// graph, shared by all collectors. The per-object action (mark vs copy) is
// supplied by the caller; the tracer handles dedup via FlagMark, worklist
// management, and work accounting.
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

	objectsScanned int64
	work           Work
}

// reset prepares the tracer for a new collection.
func (t *tracer) reset() {
	t.worklist = t.worklist[:0]
	t.objectsScanned = 0
	t.work = Work{}
}

// enqueueRoot offers a root reference to the trace.
func (t *tracer) enqueueRoot(r heap.Ref) {
	t.enqueue(r)
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
	t.work.Add(scanWork(len(refs)))
	for _, c := range refs {
		t.enqueue(c)
	}
}

// pending reports whether unscanned work remains.
func (t *tracer) pending() bool { return len(t.worklist) > 0 }

// gray enqueues an object mid-cycle (incremental-update write barrier).
func (t *tracer) gray(r heap.Ref) { t.enqueue(r) }
