package gc

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"jvmpower/internal/heap"
	"jvmpower/internal/units"
)

// mutator is one copy of a test mutator: a ring of stack roots, each new
// object linked to the ring's newest, and a long-lived chain anchored in
// the last root slot that is dropped whenever it outgrows chainLimit. It
// reaches objects only through root slots, so several copies over heaps
// that number their objects differently make the same graph.
type mutator struct {
	h     *heap.Heap
	roots *testRoots
	pos   int
	chain units.ByteSize
}

const (
	mutatorRing = 64
	chainLimit  = 700 * units.KB
)

func newMutator(h *heap.Heap) *mutator {
	return &mutator{h: h, roots: &testRoots{refs: make([]heap.Ref, mutatorRing+1)}}
}

// place wires r, just allocated with size bytes and nrefs references,
// into the graph: link decides the cohort link, long whether r joins the
// chain.
func (m *mutator) place(r heap.Ref, size uint32, nrefs int, link, long bool) {
	refs := m.h.Get(r).RefsIn(m.h)
	if prev := m.roots.refs[m.pos]; link && nrefs > 0 && prev != heap.Null {
		refs[0] = prev
	}
	m.pos = (m.pos + 1) % mutatorRing
	m.roots.refs[m.pos] = r
	if long && nrefs > 0 {
		anchor := &m.roots.refs[mutatorRing]
		if m.chain += units.ByteSize(size); m.chain > chainLimit {
			m.chain = units.ByteSize(size)
		} else {
			refs[nrefs-1] = *anchor
		}
		*anchor = r
	}
}

// TestLanesMatchSeparatePlans drives a Lanes set of 1, 2 and 4 MB and
// three stand-alone SemiSpace plans of those sizes, each over a heap of
// its own, with the same allocation and root stream. Each lane must see
// exactly what its stand-alone plan sees: the same collection reports
// (every phase's volumes, Locality and MLP), the same Stats, and, at
// checkpoints after a Flush, the same MutatorLocality, to the bit, and
// counts. The chain outgrows the 1 MB lane's semi-space, so that lane
// leaves the set, with its plan's allocation error, at the allocation
// where its plan fails, and keeps its plan's state from then on. Every
// object must also sit at the address the last lane's plan gives it.
func TestLanesMatchSeparatePlans(t *testing.T) {
	sizes := []units.ByteSize{1 * units.MB, 2 * units.MB, 4 * units.MB}
	n := len(sizes)

	lockHeap := heap.New()
	lockMut := newMutator(lockHeap)
	lockReps := make([][]CollectionReport, n)
	lanes, err := NewLanes(sizes, Env{Heap: lockHeap, Roots: lockMut.roots}, func(i int, r CollectionReport) {
		lockReps[i] = append(lockReps[i], r)
	})
	if err != nil {
		t.Fatal(err)
	}
	alone := make([]*SemiSpace, n)
	aloneMut := make([]*mutator, n)
	aloneReps := make([][]CollectionReport, n)
	aloneErr := make([]error, n)
	for i, size := range sizes {
		h := heap.New()
		aloneMut[i] = newMutator(h)
		alone[i] = NewSemiSpace(size, Env{Heap: h, Roots: aloneMut[i].roots, OnCollection: func(r CollectionReport) {
			aloneReps[i] = append(aloneReps[i], r)
		}})
	}

	checkpoint := func(step int) {
		t.Helper()
		lanes.Flush()
		for i, want := range alone {
			got := lanes.Plan(i)
			if g, w := got.MutatorLocality(), want.MutatorLocality(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("step %d, lane %d: mutator locality %v, its own plan's %v", step, i, g, w)
			}
			g := fmt.Sprint(got.from.Used(), got.sinceGC, got.objects, got.bytes, got.Stats())
			w := fmt.Sprint(want.from.Used(), want.sinceGC, want.objects, want.bytes, want.Stats())
			if g != w {
				t.Fatalf("step %d, lane %d: used, since GC, objects, bytes, stats\n got %s\nwant %s", step, i, g, w)
			}
		}
	}

	rng := uint64(7)
	next := func() uint64 { // splitmix64
		rng += 0x9E3779B97F4A7C15
		x := rng
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		return x ^ x>>31
	}
	const steps = 120_000
	for step := 0; step < steps; step++ {
		size := uint32(16 + next()%113)
		nrefs := int(next() % 4)
		link, long := next()%10 < 7, next()%20 == 0

		r, err := lanes.Alloc(size, nrefs)
		if err != nil {
			t.Fatalf("step %d: the last lane failed: %v", step, err)
		}
		lockMut.place(r, size, nrefs, link, long)
		var addr uint64
		for i, s := range alone {
			if aloneErr[i] != nil {
				continue
			}
			ra, err := s.Alloc(size, nrefs)
			if err != nil {
				aloneErr[i] = err
				continue
			}
			aloneMut[i].place(ra, size, nrefs, link, long)
			addr = aloneMut[i].h.Get(ra).Addr
		}
		for i := range sizes {
			if fmt.Sprint(lanes.Left(i)) != fmt.Sprint(aloneErr[i]) {
				t.Fatalf("step %d, lane %d: left with %v; its own plan's error is %v", step, i, lanes.Left(i), aloneErr[i])
			}
		}
		if got := lockHeap.Get(r).Addr; got != addr {
			t.Fatalf("step %d: object at %#x, the last lane's plan put it at %#x", step, got, addr)
		}
		if step%997 == 0 {
			checkpoint(step)
		}
	}
	checkpoint(steps)

	if lanes.Left(0) == nil {
		t.Fatal("the 1 MB lane never left: the test no longer covers a lane that runs out of memory")
	}
	for i := range sizes {
		if len(aloneReps[i]) < 2 {
			t.Fatalf("lane %d: %d collections; the stream should collect every lane at least twice", i, len(aloneReps[i]))
		}
		if !reflect.DeepEqual(lockReps[i], aloneReps[i]) {
			t.Fatalf("lane %d: %d collection reports differ from its own plan's %d:\n%+v\nvs\n%+v",
				i, len(lockReps[i]), len(aloneReps[i]), lockReps[i], aloneReps[i])
		}
		if lanes.Plan(i).Stats() != alone[i].Stats() {
			t.Fatalf("lane %d: stats %+v, its own plan's %+v", i, lanes.Plan(i).Stats(), alone[i].Stats())
		}
	}
}
