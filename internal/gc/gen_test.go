package gc

import (
	"testing"

	"jvmpower/internal/heap"
	"jvmpower/internal/units"
)

// Generational-specific behavior: write barriers, remembered sets, minor
// vs full collections, and promotion.

func TestWriteBarrierRecordsMatureToNursery(t *testing.T) {
	for _, plan := range []string{"GenCopy", "GenMS"} {
		t.Run(plan, func(t *testing.T) {
			w := newWorld(t, plan, 8*units.MB)
			// Create an object and force it mature via a full collection.
			old := w.alloc(t, 64, 1)
			w.roots.refs = []heap.Ref{old}
			w.col.Collect("promote")
			if w.h.Get(old).Flags&heap.FlagMature == 0 {
				t.Fatal("object not mature after full collection")
			}

			young := w.alloc(t, 64, 0)
			cost := w.col.WriteBarrier(old, young)
			if cost <= barrierFilterInstr {
				t.Fatalf("mature->nursery store cost %d, want filter+record", cost)
			}
			// Second store to the same source dedupes.
			young2 := w.alloc(t, 64, 0)
			if cost2 := w.col.WriteBarrier(old, young2); cost2 != barrierFilterInstr {
				t.Fatalf("duplicate remset record cost %d, want filter only", cost2)
			}
			st := w.col.Stats()
			if st.RemsetRecorded != 1 {
				t.Fatalf("remset records = %d, want 1", st.RemsetRecorded)
			}
			if st.BarrierStores != 2 {
				t.Fatalf("barrier stores = %d, want 2", st.BarrierStores)
			}
		})
	}
}

func TestRemsetKeepsNurseryObjectAlive(t *testing.T) {
	for _, plan := range []string{"GenCopy", "GenMS"} {
		t.Run(plan, func(t *testing.T) {
			w := newWorld(t, plan, 8*units.MB)
			old := w.alloc(t, 64, 1)
			w.roots.refs = []heap.Ref{old}
			w.col.Collect("promote")

			// A nursery object reachable ONLY through the mature object.
			young := w.alloc(t, 64, 0)
			w.h.Get(old).RefsIn(w.h)[0] = young
			w.col.WriteBarrier(old, young)

			// Fill the nursery to force minor collections.
			nursery := NurserySize(8 * units.MB)
			for allocated := units.ByteSize(0); allocated < 2*nursery; allocated += 1024 {
				w.alloc(t, 1024, 0)
			}
			st := w.col.Stats()
			if st.NurseryCollections == 0 {
				t.Fatal("no nursery collection despite nursery churn")
			}
			if w.h.Get(young).Size == 0 {
				t.Fatal("remset-reachable nursery object was freed")
			}
			if w.h.Get(young).Flags&heap.FlagMature == 0 {
				t.Fatal("surviving nursery object was not promoted")
			}
		})
	}
}

func TestMinorCollectionsDoNotTouchMatureGarbage(t *testing.T) {
	for _, plan := range []string{"GenCopy", "GenMS"} {
		t.Run(plan, func(t *testing.T) {
			w := newWorld(t, plan, 8*units.MB)
			// Mature garbage: promoted, then unrooted.
			old := w.alloc(t, 64, 0)
			w.roots.refs = []heap.Ref{old}
			w.col.Collect("promote")
			w.roots.refs = nil
			fullsBefore := w.col.Stats().FullCollections

			// Drive several minor collections.
			nursery := NurserySize(8 * units.MB)
			for allocated := units.ByteSize(0); allocated < 3*nursery; allocated += 1024 {
				w.alloc(t, 1024, 0)
			}
			if w.col.Stats().FullCollections != fullsBefore {
				t.Skip("a full collection intervened; mature garbage legitimately reclaimed")
			}
			if w.h.Get(old).Size == 0 {
				t.Fatal("minor collection reclaimed mature garbage")
			}
		})
	}
}

func TestNonGenerationalBarrierIsFree(t *testing.T) {
	for _, plan := range []string{"SemiSpace", "MarkSweep"} {
		w := newWorld(t, plan, 4*units.MB)
		a := w.alloc(t, 64, 1)
		b := w.alloc(t, 64, 0)
		if cost := w.col.WriteBarrier(a, b); cost != 0 {
			t.Errorf("%s: barrier cost %d, want 0", plan, cost)
		}
	}
}

func TestLargeObjectsBypassNursery(t *testing.T) {
	for _, plan := range []string{"GenCopy", "GenMS"} {
		w := newWorld(t, plan, 8*units.MB)
		big := uint32(NurserySize(8*units.MB)/2) + 1024
		r, err := w.col.Alloc(big, 0)
		if err != nil {
			t.Fatalf("%s: large alloc: %v", plan, err)
		}
		if w.h.Get(r).Flags&heap.FlagMature == 0 {
			t.Errorf("%s: large object not allocated mature", plan)
		}
	}
}

func TestNurserySize(t *testing.T) {
	if got := NurserySize(32 * units.MB); got != 8*units.MB {
		t.Fatalf("nursery of 32MB heap = %v, want 8MB", got)
	}
	if got := NurserySize(512 * units.KB); got != 256*units.KB {
		t.Fatalf("tiny heap nursery = %v, want floor 256KB", got)
	}
}

func TestGenCollectionKinds(t *testing.T) {
	for _, plan := range []string{"GenCopy", "GenMS"} {
		w := newWorld(t, plan, 8*units.MB)
		// Allocate through multiple nurseries with modest survival.
		var keep []heap.Ref
		for i := 0; i < 6*1024; i++ {
			r := w.alloc(t, 1024, 1)
			if i%64 == 0 {
				keep = append(keep, r)
				if len(keep) > 32 {
					keep = keep[1:]
				}
				w.roots.refs = keep
			}
		}
		st := w.col.Stats()
		if st.NurseryCollections == 0 {
			t.Errorf("%s: no nursery collections", plan)
		}
		for _, rep := range w.reps {
			if rep.Kind != NurseryCollection && rep.Kind != FullCollection {
				t.Errorf("%s: unexpected report kind %q", plan, rep.Kind)
			}
			if rep.Work.Instructions <= 0 {
				t.Errorf("%s: empty work in report", plan)
			}
		}
	}
}
