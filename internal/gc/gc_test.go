package gc

import (
	"errors"
	"reflect"
	"testing"

	"jvmpower/internal/heap"
	"jvmpower/internal/heap/heaptest"
	"jvmpower/internal/units"
)

// testRoots is a mutable root set for driving collectors. SemiSpace
// rewrites its slots, so tests read survivors back through refs.
type testRoots struct {
	refs []heap.Ref
}

func (r *testRoots) Roots(fn func(*heap.Ref)) {
	for i := range r.refs {
		fn(&r.refs[i])
	}
}
func (r *testRoots) RootCount() int { return len(r.refs) }

// renumbers reports whether plan evacuates the object table, giving its
// survivors new Refs; every other plan keeps Refs stable.
func renumbers(plan string) bool { return plan == "SemiSpace" }

// shapeOf is heaptest.ShapeOf over the world's roots, failing the test on
// a dangling reference.
func (w *world) shapeOf(t *testing.T) heaptest.Shape {
	t.Helper()
	s, err := heaptest.ShapeOf(w.h, w.roots.refs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMovedGraph is the oracle for a collection that renumbers the
// table: the roots, read back through their rewritten slots, reach the
// same graph as before (sizes, edges, nothing dangling), and that graph
// is the whole table — no garbage retained, every slot a survivor.
func (w *world) checkMovedGraph(t *testing.T, before heaptest.Shape) {
	t.Helper()
	after := w.shapeOf(t)
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("reachable graph changed across the collection:\nbefore %+v\nafter  %+v", before, after)
	}
	if n := int64(len(after.Sizes)); w.h.LiveCount() != n || int64(w.h.TableLen()-1) != n {
		t.Fatalf("live %d objects in a %d-slot table, want the %d reachable ones", w.h.LiveCount(), w.h.TableLen()-1, n)
	}
	var bytes units.ByteSize
	for _, sz := range after.Sizes {
		bytes += units.ByteSize(sz)
	}
	if w.h.LiveBytes() != bytes {
		t.Fatalf("live bytes %v, want the reachable %v", w.h.LiveBytes(), bytes)
	}
}

// world bundles a heap, roots, and a collector for tests.
type world struct {
	h     *heap.Heap
	roots *testRoots
	col   Collector
	reps  []CollectionReport
}

func newWorld(t *testing.T, plan string, size units.ByteSize) *world {
	t.Helper()
	w := &world{h: heap.New(), roots: &testRoots{}}
	col, err := New(plan, size, Env{
		Heap:  w.h,
		Roots: w.roots,
		OnCollection: func(r CollectionReport) {
			w.reps = append(w.reps, r)
		},
		Seed: 42,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", plan, err)
	}
	w.col = col
	return w
}

// alloc allocates one plain object, failing the test on error.
func (w *world) alloc(t *testing.T, size uint32, nrefs int) heap.Ref {
	t.Helper()
	r, err := w.col.Alloc(size, nrefs)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	return r
}

var allPlans = []string{"SemiSpace", "MarkSweep", "GenCopy", "GenMS", "KaffeMS"}

func TestNewRejectsBadConfig(t *testing.T) {
	h := heap.New()
	roots := &testRoots{}
	if _, err := New("SemiSpace", 4*units.MB, Env{Roots: roots}); err == nil {
		t.Error("nil heap accepted")
	}
	if _, err := New("SemiSpace", 4*units.MB, Env{Heap: h}); err == nil {
		t.Error("nil roots accepted")
	}
	if _, err := New("SemiSpace", 1*units.KB, Env{Heap: h, Roots: roots}); err == nil {
		t.Error("tiny heap accepted")
	}
	if _, err := New("Zorch", 4*units.MB, Env{Heap: h, Roots: roots}); err == nil {
		t.Error("unknown plan accepted")
	}
}

func TestRootedObjectsSurviveCollection(t *testing.T) {
	for _, plan := range allPlans {
		t.Run(plan, func(t *testing.T) {
			w := newWorld(t, plan, 4*units.MB)
			// A rooted list: root -> a -> b -> c, sizes distinct so a
			// field left pointing at the wrong object shows.
			c := w.alloc(t, 48, 1)
			b := w.alloc(t, 64, 1)
			a := w.alloc(t, 80, 1)
			w.h.Get(a).RefsIn(w.h)[0] = b
			w.col.WriteBarrier(a, b)
			w.h.Get(b).RefsIn(w.h)[0] = c
			w.col.WriteBarrier(b, c)
			w.roots.refs = []heap.Ref{a}
			garbage := w.alloc(t, 64, 0)
			before := w.shapeOf(t)

			w.col.Collect("test")
			if renumbers(plan) {
				w.checkMovedGraph(t, before)
				return
			}
			for _, r := range []heap.Ref{a, b, c} {
				if w.h.Get(r).Size == 0 {
					t.Fatalf("%s: live object %d freed", plan, r)
				}
			}
			if after := w.shapeOf(t); !reflect.DeepEqual(after, before) {
				t.Fatalf("%s: reachable graph changed: before %+v, after %+v", plan, before, after)
			}
			_ = garbage // may or may not be retained by KaffeMS conservatism
		})
	}
}

func TestGarbageIsReclaimed(t *testing.T) {
	for _, plan := range allPlans {
		t.Run(plan, func(t *testing.T) {
			w := newWorld(t, plan, 4*units.MB)
			// The rooted object sits mid-table, among 1000 garbage ones.
			var keep heap.Ref
			for i := 0; i < 1001; i++ {
				if r := w.alloc(t, 64, 0); i == 500 {
					keep = r
				}
			}
			w.roots.refs = []heap.Ref{keep}
			before := w.h.LiveCount()
			graph := w.shapeOf(t)
			w.col.Collect("test")
			if renumbers(plan) {
				// Exactly the rooted object is left, in the table's first slot.
				w.checkMovedGraph(t, graph)
				if w.roots.refs[0] != 1 {
					t.Fatalf("%s: the survivor is Ref %d, want 1", plan, w.roots.refs[0])
				}
				return
			}
			// KaffeMS may conservatively retain a small fraction.
			after := w.h.LiveCount()
			if after >= before {
				t.Fatalf("%s: nothing reclaimed (live %d -> %d)", plan, before, after)
			}
			if after > 60 { // 1001 objects, ≥94% garbage must go
				t.Fatalf("%s: too much retained: %d live", plan, after)
			}
			if w.h.Get(keep).Size == 0 {
				t.Fatalf("%s: rooted object freed", plan)
			}
		})
	}
}

func TestCollectionTriggeredByExhaustion(t *testing.T) {
	for _, plan := range allPlans {
		t.Run(plan, func(t *testing.T) {
			w := newWorld(t, plan, 2*units.MB)
			// Allocate 8 MB of garbage through a 2 MB heap.
			for i := 0; i < 8*1024; i++ {
				w.alloc(t, 1024, 0)
			}
			st := w.col.Stats()
			if st.Collections == 0 && st.Increments == 0 {
				t.Fatalf("%s: no collection despite 4x heap churn", plan)
			}
			if len(w.reps) == 0 {
				t.Fatalf("%s: no collection reports emitted", plan)
			}
		})
	}
}

func TestOutOfMemory(t *testing.T) {
	for _, plan := range allPlans {
		t.Run(plan, func(t *testing.T) {
			w := newWorld(t, plan, 2*units.MB)
			// Root everything so nothing can be reclaimed.
			for i := 0; i < 10*1024; i++ {
				r, err := w.col.Alloc(1024, 0)
				if err != nil {
					if !errors.Is(err, ErrOutOfMemory) {
						t.Fatalf("%s: wrong error: %v", plan, err)
					}
					return
				}
				w.roots.refs = append(w.roots.refs, r)
			}
			t.Fatalf("%s: 10MB of live data fit a 2MB heap", plan)
		})
	}
}

func TestCopyingCollectorsMoveObjects(t *testing.T) {
	for _, plan := range []string{"SemiSpace", "GenCopy", "GenMS"} {
		t.Run(plan, func(t *testing.T) {
			w := newWorld(t, plan, 4*units.MB)
			r := w.alloc(t, 64, 0)
			w.roots.refs = []heap.Ref{r}
			before := w.h.Get(r).Addr
			w.col.Collect("test")
			after := w.h.Get(w.roots.refs[0]).Addr // SemiSpace renumbers r
			if before == after {
				t.Fatalf("%s: object did not move on full collection", plan)
			}
		})
	}
	for _, plan := range []string{"MarkSweep", "KaffeMS"} {
		t.Run(plan, func(t *testing.T) {
			w := newWorld(t, plan, 4*units.MB)
			r := w.alloc(t, 64, 0)
			w.roots.refs = []heap.Ref{r}
			before := w.h.Get(r).Addr
			w.col.Collect("test")
			if w.h.Get(r).Addr != before {
				t.Fatalf("%s: non-moving plan moved an object", plan)
			}
		})
	}
}

func TestNewNamesPlan(t *testing.T) {
	for _, plan := range allPlans {
		if w := newWorld(t, plan, 4*units.MB); w.col.Name() != plan {
			t.Errorf("New(%q).Name() = %q", plan, w.col.Name())
		}
	}
}
