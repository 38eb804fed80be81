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
					if o.Size != size || o.Addr != addr || o.Flags != 0 || len(refs) != nrefs {
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

// evacuate runs a minimal copying trace over h, the way SemiSpace does:
// root slots in order, then each copy's fields depth first, every slot
// rewritten through Forward.
func evacuate(h *Heap, roots []Ref) {
	var work []Ref
	forward := func(slot *Ref) {
		if *slot == Null {
			return
		}
		r, copied := h.Forward(*slot)
		*slot = r
		if copied {
			work = append(work, r)
		}
	}
	h.BeginEvacuation()
	for i := range roots {
		forward(&roots[i])
	}
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		refs := h.Get(r).RefsIn(h)
		for i := range refs {
			forward(&refs[i])
		}
	}
	h.EndEvacuation()
}

func TestEvacuationMovesSurvivors(t *testing.T) {
	h := New()
	// Garbage first, over a chunk's worth, so the from-table spans chunks
	// and no survivor keeps its Ref by accident.
	for i := 0; i < chunkSize; i++ {
		h.NewObject(16, 1, uint64(i)*16)
	}
	spilled := h.NewObject(1216, 300, 0xA000)
	inline := h.NewObject(64, inlineRefs, 0xB000)
	var targets []Ref
	for i := 0; i < 8; i++ {
		targets = append(targets, h.NewObject(uint32(24+8*i), 0, 0xC000+uint64(i)*64))
	}
	// spilled cycles through all eight targets; inline takes the last four.
	spilledTarget := func(i int) int { return i % len(targets) }
	inlineTarget := func(i int) int { return len(targets) - 1 - i }
	for i, refs := 0, h.Get(spilled).RefsIn(h); i < len(refs); i++ {
		refs[i] = targets[spilledTarget(i)]
	}
	for i, refs := 0, h.Get(inline).RefsIn(h); i < len(refs); i++ {
		refs[i] = targets[inlineTarget(i)]
	}
	oldChunks := append([][]Object(nil), h.chunks...)
	arenaLen := len(h.arena)

	roots := []Ref{inline, spilled, inline, Null}
	evacuate(h, roots)

	// Survivors: inline, its 4 targets, spilled, its other 4 targets — in
	// trace order, so the roots' targets take the first slots.
	if roots[0] != 1 || roots[2] != 1 || roots[3] != Null {
		t.Fatalf("roots after evacuation = %v, want [1 _ 1 0]", roots)
	}
	if h.LiveCount() != 10 || h.TableLen() != 11 {
		t.Fatalf("live %d objects in %d slots, want 10 in 11", h.LiveCount(), h.TableLen())
	}
	var want units.ByteSize = 1216 + 64
	for i := range targets {
		want += units.ByteSize(24 + 8*i)
	}
	if h.LiveBytes() != want {
		t.Fatalf("live bytes %v, want %v", h.LiveBytes(), want)
	}
	if len(h.arena) != arenaLen {
		t.Fatalf("arena grew from %d to %d refs", arenaLen, len(h.arena))
	}
	// Targets are told apart by their addresses, which evacuation keeps.
	checkRefs := func(name string, r Ref, size uint32, nrefs int, target func(int) int) {
		o := h.Get(r)
		refs := o.RefsIn(h)
		if o.Size != size || len(refs) != nrefs {
			t.Fatalf("%s survivor has size %d and %d refs, want %d and %d", name, o.Size, len(refs), size, nrefs)
		}
		for i, c := range refs {
			want := 0xC000 + uint64(target(i))*64
			if c == Null || int(c) >= h.TableLen() || h.Get(c).Addr != want {
				t.Fatalf("%s survivor refs[%d] = %d, want the target at %#x", name, i, c, want)
			}
		}
	}
	checkRefs("inline", roots[0], 64, inlineRefs, inlineTarget)
	checkRefs("spilled", roots[1], 1216, 300, spilledTarget)
	// The from-table's chunks are back in the pool.
	chunkPool.mu.Lock()
	pooled := make(map[*Object]bool)
	for _, c := range chunkPool.free {
		pooled[&c[0]] = true
	}
	chunkPool.mu.Unlock()
	for i, c := range oldChunks {
		if !pooled[&c[0]] {
			t.Fatalf("from-table chunk %d of %d not returned to the pool", i, len(oldChunks))
		}
	}
	// New allocations fill the table in order after the survivors.
	if r := h.NewObject(16, 0, 0); r != 11 {
		t.Fatalf("first allocation after evacuation got Ref %d, want 11", r)
	}
	h.Release()
}

func TestForwardCopiesOnce(t *testing.T) {
	h := New()
	a := h.NewObject(40, 2, 0x100)
	b := h.NewObject(48, 0, 0x200)
	h.Get(a).RefsIn(h)[1] = b
	h.BeginEvacuation()
	nb, copied := h.Forward(b)
	if !copied || nb != 1 {
		t.Fatalf("first Forward(b) = %d, %v; want 1, true", nb, copied)
	}
	again, copied := h.Forward(b)
	if copied || again != nb {
		t.Fatalf("second Forward(b) = %d, %v; want %d, false", again, copied, nb)
	}
	na, _ := h.Forward(a)
	if h.TableLen() != 3 || h.LiveCount() != 2 || h.Get(na).Size != 40 || h.Get(nb).Size != 48 {
		t.Fatalf("table %d live %d after forwarding two objects, one twice", h.TableLen(), h.LiveCount())
	}
	// A copy's fields name from-table objects until they are forwarded.
	if got := h.Get(na).RefsIn(h)[1]; got != b {
		t.Fatalf("unforwarded field reads %d, want the old Ref %d", got, b)
	}
	h.EndEvacuation()
}

// TestEvacuationConcurrent evacuates several heaps at once (run it under
// -race): each evacuation hands whole from-tables back to the shared
// chunk pool while the others draw their new tables from it.
func TestEvacuationConcurrent(t *testing.T) {
	const workers, rounds, objects = 4, 4, chunkSize + chunkSize/2
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := New()
			defer h.Release()
			var roots []Ref
			for round := 0; round < rounds; round++ {
				// Keep every 16th object on a chain through field 0.
				for i := 0; i < objects; i++ {
					nrefs := 1 + i%7 // 5 and up spill to the arena
					r := h.NewObject(uint32(16+i%64), nrefs, uint64(i)*128)
					if i%16 == 0 {
						if len(roots) > 0 {
							h.Get(r).RefsIn(h)[0] = roots[0]
						}
						roots = []Ref{r}
					}
				}
				evacuate(h, roots)
				n := 0
				for r := roots[0]; r != Null; r = h.Get(r).RefsIn(h)[0] {
					if n++; int(r) >= h.TableLen() {
						errs <- fmt.Errorf("round %d: chain link %d is Ref %d outside the %d-slot table", round, n, r, h.TableLen())
						return
					}
				}
				if want := (round + 1) * objects / 16; n != want || h.LiveCount() != int64(want) {
					errs <- fmt.Errorf("round %d: chain of %d with %d live, want %d", round, n, h.LiveCount(), want)
					return
				}
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
