package gc

import (
	"errors"
	"testing"

	"jvmpower/internal/heap"
	"jvmpower/internal/units"
)

// testRoots is a mutable root set for driving collectors.
type testRoots struct {
	refs []heap.Ref
}

func (r *testRoots) Roots(fn func(heap.Ref)) {
	for _, x := range r.refs {
		fn(x)
	}
}
func (r *testRoots) RootCount() int { return len(r.refs) }

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
			// A rooted list: root -> a -> b -> c.
			c := w.alloc(t, 64, 1)
			b := w.alloc(t, 64, 1)
			a := w.alloc(t, 64, 1)
			w.h.Get(a).RefsIn(w.h)[0] = b
			w.col.WriteBarrier(a, b)
			w.h.Get(b).RefsIn(w.h)[0] = c
			w.col.WriteBarrier(b, c)
			w.roots.refs = []heap.Ref{a}
			garbage := w.alloc(t, 64, 0)

			w.col.Collect("test")
			for _, r := range []heap.Ref{a, b, c} {
				if w.h.Get(r).Size == 0 {
					t.Fatalf("%s: live object %d freed", plan, r)
				}
			}
			_ = garbage // may or may not be retained by KaffeMS conservatism
		})
	}
}

func TestGarbageIsReclaimed(t *testing.T) {
	for _, plan := range allPlans {
		t.Run(plan, func(t *testing.T) {
			w := newWorld(t, plan, 4*units.MB)
			keep := w.alloc(t, 64, 0)
			w.roots.refs = []heap.Ref{keep}
			for i := 0; i < 1000; i++ {
				w.alloc(t, 64, 0)
			}
			before := w.h.LiveCount()
			w.col.Collect("test")
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
			after := w.h.Get(r).Addr
			if before == after {
				t.Fatalf("%s: object did not move on full collection", plan)
			}
			if !w.col.Moving() {
				t.Fatalf("%s: Moving() is false for a moving plan", plan)
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
			if w.col.Moving() {
				t.Fatalf("%s: Moving() is true for a non-moving plan", plan)
			}
		})
	}
}

func TestGenerationalFlag(t *testing.T) {
	want := map[string]bool{
		"SemiSpace": false, "MarkSweep": false,
		"GenCopy": true, "GenMS": true, "KaffeMS": false,
	}
	for plan, gen := range want {
		w := newWorld(t, plan, 4*units.MB)
		if w.col.Generational() != gen {
			t.Errorf("%s: Generational() = %v, want %v", plan, w.col.Generational(), gen)
		}
		if w.col.Name() != plan {
			t.Errorf("%s: Name() = %q", plan, w.col.Name())
		}
		if w.col.HeapSize() != 4*units.MB {
			t.Errorf("%s: HeapSize() = %v", plan, w.col.HeapSize())
		}
	}
}
