package gc

import (
	"reflect"
	"testing"
	"testing/quick"

	"jvmpower/internal/heap"
	"jvmpower/internal/heap/heaptest"
	"jvmpower/internal/units"
)

// Property test: for arbitrary object graphs and root sets, a full
// collection preserves exactly the reachable set (modulo KaffeMS's
// deliberate conservative over-retention, which may only ADD survivors),
// and never frees a reachable object. SemiSpace renumbers its survivors,
// so there the reachable set is compared by shape (heaptest.Shape).

type graphSpec struct {
	// Sizes of objects to allocate (bounded); Edges wire object i to
	// object Edges[i]%i (for i>0); RootPicks select roots.
	Sizes     []uint8
	Edges     []uint16
	RootPicks []uint8
}

func reachable(h *heap.Heap, roots []heap.Ref) map[heap.Ref]bool {
	seen := make(map[heap.Ref]bool)
	var stack []heap.Ref
	push := func(r heap.Ref) {
		if r != heap.Null && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range h.Get(r).RefsIn(h) {
			push(c)
		}
	}
	return seen
}

func TestFullCollectionPreservesReachability(t *testing.T) {
	for _, plan := range []string{"SemiSpace", "MarkSweep", "GenCopy", "GenMS"} {
		plan := plan
		t.Run(plan, func(t *testing.T) {
			f := func(spec graphSpec) bool {
				if len(spec.Sizes) == 0 || len(spec.Sizes) > 300 {
					return true
				}
				w := &world{h: heap.New(), roots: &testRoots{}}
				col, err := New(plan, 8*units.MB, Env{Heap: w.h, Roots: w.roots, Seed: 7})
				if err != nil {
					return false
				}
				w.col = col

				objs := make([]heap.Ref, 0, len(spec.Sizes))
				for i, sz := range spec.Sizes {
					nrefs := 0
					if i > 0 {
						nrefs = 1
					}
					r, err := col.Alloc(uint32(sz)+16, nrefs)
					if err != nil {
						return false
					}
					objs = append(objs, r)
					if i > 0 && i < len(spec.Edges)+1 {
						target := objs[int(spec.Edges[i-1])%i]
						w.h.Get(r).RefsIn(w.h)[0] = target
						col.WriteBarrier(r, target)
					}
				}
				for _, pick := range spec.RootPicks {
					w.roots.refs = append(w.roots.refs, objs[int(pick)%len(objs)])
				}

				want := reachable(w.h, w.roots.refs)
				before, err := heaptest.ShapeOf(w.h, w.roots.refs)
				if err != nil {
					t.Log(err)
					return false
				}
				col.Collect("property")

				// The roots, read back through their slots, must reach
				// the same graph: sizes, edges, nothing dangling.
				after, err := heaptest.ShapeOf(w.h, w.roots.refs)
				if err != nil || !reflect.DeepEqual(after, before) {
					t.Logf("reachable graph changed (%v): before %+v, after %+v", err, before, after)
					return false
				}
				if renumbers(plan) {
					// Survivors were renumbered: the table must hold
					// exactly the reachable graph.
					if n := int64(len(want)); w.h.LiveCount() != n || int64(w.h.TableLen()-1) != n {
						t.Logf("live %d objects in a %d-slot table, want the %d reachable ones",
							w.h.LiveCount(), w.h.TableLen()-1, n)
						return false
					}
					return true
				}

				// Every reachable object must survive intact; every
				// unreachable object must be freed (these plans are exact).
				for _, r := range objs {
					alive := w.h.Get(r).Size != 0
					if want[r] && !alive {
						t.Logf("reachable object %d freed", r)
						return false
					}
					if !want[r] && alive {
						t.Logf("unreachable object %d retained", r)
						return false
					}
				}
				// References must still point at the same objects.
				for _, r := range objs {
					if !want[r] {
						continue
					}
					for _, c := range w.h.Get(r).RefsIn(w.h) {
						if c != heap.Null && w.h.Get(c).Size == 0 {
							t.Logf("dangling reference %d -> %d", r, c)
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// KaffeMS is conservative: it may retain garbage but must never free a
// reachable object, across arbitrary incremental schedules.
func TestKaffeConservativeNeverFreesLive(t *testing.T) {
	f := func(spec graphSpec) bool {
		if len(spec.Sizes) == 0 || len(spec.Sizes) > 300 {
			return true
		}
		w := &world{h: heap.New(), roots: &testRoots{}}
		col, err := New("KaffeMS", 2*units.MB, Env{Heap: w.h, Roots: w.roots, Seed: 7})
		if err != nil {
			return false
		}
		w.col = col
		objs := make([]heap.Ref, 0, len(spec.Sizes))
		for i, sz := range spec.Sizes {
			nrefs := 0
			if i > 0 {
				nrefs = 1
			}
			// Interleave garbage churn so incremental cycles trigger
			// mid-construction.
			if _, err := col.Alloc(4096, 0); err != nil {
				return false
			}
			r, err := col.Alloc(uint32(sz)+16, nrefs)
			if err != nil {
				return false
			}
			objs = append(objs, r)
			w.roots.refs = append(w.roots.refs, r) // root while wiring
			if i > 0 && i < len(spec.Edges)+1 {
				target := objs[int(spec.Edges[i-1])%i]
				w.h.Get(r).RefsIn(w.h)[0] = target
				col.WriteBarrier(r, target)
			}
		}
		// Drop roots to just the picks.
		w.roots.refs = w.roots.refs[:0]
		for _, pick := range spec.RootPicks {
			w.roots.refs = append(w.roots.refs, objs[int(pick)%len(objs)])
		}
		want := reachable(w.h, w.roots.refs)
		col.Collect("property")
		for _, r := range objs {
			if want[r] && w.h.Get(r).Size == 0 {
				t.Logf("conservative collector freed reachable object %d", r)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestKaffeIncrementalCycle(t *testing.T) {
	w := newWorld(t, "KaffeMS", 2*units.MB)
	// Drive allocation past the start threshold; increments should appear
	// before any full sweep.
	for i := 0; i < 4*1024; i++ {
		w.alloc(t, 512, 0)
	}
	st := w.col.Stats()
	if st.Increments == 0 {
		t.Fatal("no incremental steps recorded")
	}
	sawIncrementBeforeFinish := false
	for _, rep := range w.reps {
		if rep.Kind == IncrementStep {
			sawIncrementBeforeFinish = true
			break
		}
		if rep.Kind == FullCollection {
			break
		}
	}
	if !sawIncrementBeforeFinish {
		t.Fatal("cycle did not run incrementally")
	}
}

// TestKaffeAllocatesBlackDuringCycle: an object allocated while an
// incremental cycle is in flight is born marked, so that cycle's sweep
// cannot free it. The rooted live set is four increments' worth of
// objects, so a cycle stays active across several allocations; every
// allocation that begins and ends inside one cycle must return a marked
// object.
func TestKaffeAllocatesBlackDuringCycle(t *testing.T) {
	w := newWorld(t, "KaffeMS", 2*units.MB)
	for i := 0; i < 4*kaffeIncrementObjects; i++ {
		w.roots.refs = append(w.roots.refs, w.alloc(t, 64, 0))
	}
	k := w.col.(*KaffeMS)
	during := 0
	for i := 0; i < 16*1024; i++ {
		cycle := k.cycleNum
		began := k.active
		r := w.alloc(t, 512, 0)
		if !began || !k.active || k.cycleNum != cycle {
			continue
		}
		during++
		if w.h.Get(r).Flags&heap.FlagMark == 0 {
			t.Fatalf("allocation %d, made during cycle %d, is not marked", i, cycle)
		}
	}
	if during == 0 {
		t.Fatal("no allocation in 16384 began and ended inside an active cycle")
	}
}
