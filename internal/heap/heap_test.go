package heap

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"jvmpower/internal/units"
)

func TestHeapAllocAndFree(t *testing.T) {
	// Two objects to a cache line: the collectors stream over the table, so
	// its footprint is their memory traffic.
	if got := unsafe.Sizeof(Object{}); got != 32 {
		t.Fatalf("sizeof(Object) = %d, want 32", got)
	}
	h := New()
	r1 := h.NewObject(64, 2, 0x1000)
	r2 := h.NewObject(128, 0, 0x2000)
	if r1 == Null || r2 == Null || r1 == r2 {
		t.Fatalf("bad refs %d %d", r1, r2)
	}
	if h.LiveCount() != 2 || h.LiveBytes() != 192 {
		t.Fatalf("live %d/%v", h.LiveCount(), h.LiveBytes())
	}
	if h.AllocCount() != 2 || h.AllocBytes() != 192 {
		t.Fatalf("alloc %d/%v", h.AllocCount(), h.AllocBytes())
	}
	o := h.Get(r1)
	if o.Size != 64 || o.NumRefs() != 2 || o.Addr != 0x1000 {
		t.Fatalf("object state %+v", o)
	}

	h.Free(r1)
	if h.LiveCount() != 1 || h.LiveBytes() != 128 {
		t.Fatalf("after free: live %d/%v", h.LiveCount(), h.LiveBytes())
	}
	// Freed slot is recycled.
	r3 := h.NewObject(32, 1, 0x3000)
	if r3 != r1 {
		t.Fatalf("slot not recycled: got %d want %d", r3, r1)
	}
	if got := h.Get(r3); got.Size != 32 || got.NumRefs() != 1 || got.RefsIn(h)[0] != Null {
		t.Fatalf("recycled object dirty: %+v", got)
	}

	// Freed slots are reused last-freed first. Ref order is observable:
	// Kaffe's false-retention hash reads the Ref, so a different reuse
	// order would change Figures 9-11.
	freed := []Ref{r2, r3, h.NewObject(16, 0, 0x4000)}
	for _, r := range freed {
		h.Free(r)
	}
	for i := len(freed) - 1; i >= 0; i-- {
		if got := h.NewObject(16, 0, 0x5000); got != freed[i] {
			t.Fatalf("reuse order: got %d, want %d (LIFO over %v)", got, freed[i], freed)
		}
	}
}

func TestSpilledRefsSurviveArenaGrowth(t *testing.T) {
	h := New()
	small := h.NewObject(64, 5, 0x1000)
	large := h.NewObject(1216, 300, 0x2000)
	for _, r := range []Ref{small, large} {
		refs := h.Get(r).RefsIn(h)
		for i := range refs {
			refs[i] = r + Ref(i) + 1
		}
	}
	for before := cap(h.arena); cap(h.arena) == before; {
		h.NewObject(1216, 300, 0x3000)
	}
	for _, r := range []Ref{small, large} {
		o := h.Get(r)
		refs := o.RefsIn(h)
		if len(refs) != o.NumRefs() {
			t.Fatalf("ref %d: %d refs, want %d", r, len(refs), o.NumRefs())
		}
		for i, got := range refs {
			if want := r + Ref(i) + 1; got != want {
				t.Fatalf("ref %d after arena growth: refs[%d] = %d, want %d", r, i, got, want)
			}
		}
	}

	// A spilled object keeps its arena offset in its inline store; the
	// slot's next occupant must not inherit it as a reference.
	for _, r := range []Ref{small, large} {
		h.Free(r)
		if got := h.NewObject(16, 1, 0x4000); got != r {
			t.Fatalf("slot not recycled: got %d want %d", got, r)
		} else if ref := h.Get(got).RefsIn(h)[0]; ref != Null {
			t.Fatalf("reused slot of spilled object reads ref %d, want Null", ref)
		}
	}
}

// TestChunkPoolReuseConcurrent drives the process-global chunk pool from
// several heaps at once (run it under -race). Chunks come back dirty, so
// every object allocated from a recycled chunk must still read clean.
func TestChunkPoolReuseConcurrent(t *testing.T) {
	const workers, rounds, objects = 4, 3, chunkSize + chunkSize/2
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				h := New()
				for i := 0; i < objects; i++ {
					nrefs := i % 7 // 5 and 6 spill to the arena
					size, addr := uint32(16+i%64), uint64(i)*128
					r := h.NewObject(size, nrefs, addr)
					o := h.Get(r)
					refs := o.RefsIn(h)
					if o.Size != size || o.Addr != addr || o.Flags != 0 || o.Age != 0 || len(refs) != nrefs {
						errs <- fmt.Errorf("round %d object %d not clean: %+v", round, i, *o)
						return
					}
					for j := range refs {
						if refs[j] != Null {
							errs <- fmt.Errorf("round %d object %d: refs[%d] = %d, want Null", round, i, j, refs[j])
							return
						}
						refs[j] = r
					}
					// Leave the slot dirty for the next heap to get this chunk.
					o.Flags = FlagMark | FlagRemset | FlagMature
					o.Age = 3
				}
				h.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestNewObjectPanicsOnRefCountOverflow(t *testing.T) {
	h := New()
	h.NewObject(16, 1<<16-1, 0) // the largest count fits
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 65536 references")
		}
	}()
	h.NewObject(16, 1<<16, 0)
}

func TestHeapGetPanicsOnNull(t *testing.T) {
	h := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic dereferencing Null")
		}
	}()
	h.Get(Null)
}

func TestForEach(t *testing.T) {
	h := New()
	a := h.NewObject(16, 0, 0)
	b := h.NewObject(16, 0, 16)
	h.Free(a)
	var seen []Ref
	h.ForEach(func(r Ref, o *Object) { seen = append(seen, r) })
	if len(seen) != 1 || seen[0] != b {
		t.Fatalf("ForEach saw %v, want [%d]", seen, b)
	}
}

func TestArraySize(t *testing.T) {
	if got := ArraySize(10, 4); got != 8+4+40 {
		t.Fatalf("array size = %d", got)
	}
}

func TestBumpSpace(t *testing.T) {
	s := NewBumpSpace("b", Region{Base: 0x1000, Limit: 0x1100}) // 256 B
	a1, ok := s.Alloc(10)
	if !ok || a1 != 0x1000 {
		t.Fatalf("first alloc at %#x ok=%v", a1, ok)
	}
	a2, ok := s.Alloc(8)
	if !ok || a2 != 0x1010 { // 10 rounds to 16
		t.Fatalf("second alloc at %#x (want 8-aligned bump)", a2)
	}
	if s.Used() != 24 || s.Free() != 232 {
		t.Fatalf("used=%v free=%v", s.Used(), s.Free())
	}
	if _, ok := s.Alloc(1000); ok {
		t.Fatal("oversized alloc should fail")
	}
	s.Reset()
	if s.Used() != 0 {
		t.Fatal("reset did not clear usage")
	}
}

func TestLayoutRegionsDisjoint(t *testing.T) {
	lay := NewLayout()
	r1 := lay.Take(1 * units.MB)
	r2 := lay.Take(2 * units.MB)
	if r1.Limit > r2.Base {
		t.Fatalf("regions overlap: %+v %+v", r1, r2)
	}
	if r1.Extent() != 1*units.MB || r2.Extent() != 2*units.MB {
		t.Fatal("extents wrong")
	}
	if !r1.Contains(r1.Base) || r1.Contains(r1.Limit) {
		t.Fatal("Contains boundary semantics wrong")
	}
}

func TestLayoutPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-size region")
		}
	}()
	NewLayout().Take(0)
}
