package gc

import (
	"fmt"

	"jvmpower/internal/heap"
	"jvmpower/internal/units"
)

// MarkSweep is the non-moving mark-and-sweep collector of Section III-B:
// allocation draws fixed-size cells from segregated free lists; when no
// suitable cell can be carved, the live set is marked from the roots and
// every cell in the space is swept, returning unmarked cells to the free
// lists. Because it never moves objects it avoids copy traffic (the paper
// measures it as the lowest-power collector at 11.7 W) but it pays a sweep
// proportional to the whole space and loses mutator locality to
// fragmentation.
type MarkSweep struct {
	env   Env
	space *heap.FreeListSpace

	allocated []heap.Ref
	tr        tracer
	stats     Stats
}

// NewMarkSweep returns a MarkSweep plan with the given total heap size.
func NewMarkSweep(heapSize units.ByteSize, env Env) *MarkSweep {
	lay := heap.NewLayout()
	m := &MarkSweep{
		env:   env,
		space: heap.NewFreeListSpace("ms", lay.Take(heapSize)),
	}
	m.tr.h = env.Heap
	return m
}

// Name implements Collector.
func (m *MarkSweep) Name() string { return "MarkSweep" }

// Stats implements Collector.
func (m *MarkSweep) Stats() Stats { return m.stats }

// Alloc implements Collector.
func (m *MarkSweep) Alloc(size uint32, nrefs int) (heap.Ref, error) {
	addr, ok := m.space.Alloc(size)
	if !ok {
		m.collect("allocation failure")
		addr, ok = m.space.Alloc(size)
		if !ok {
			return heap.Null, fmt.Errorf("%w: MarkSweep: %d bytes requested, %v free after full GC",
				ErrOutOfMemory, size, m.space.Free())
		}
	}
	r := m.env.Heap.NewObject(size, nrefs, addr)
	m.allocated = append(m.allocated, r)
	return r, nil
}

// WriteBarrier implements Collector. MarkSweep needs no barrier.
func (m *MarkSweep) WriteBarrier(src, dst heap.Ref) int64 { return 0 }

// Collect implements Collector.
func (m *MarkSweep) Collect(reason string) { m.collect(reason) }

func (m *MarkSweep) collect(reason string) {
	h := m.env.Heap
	rep := CollectionReport{Collector: m.Name(), Kind: FullCollection, Reason: reason}

	// Mark phase: transitive closure from the roots.
	m.tr.reset()
	m.tr.follow = nil
	m.tr.visit = nil
	nRoots := m.env.Roots.RootCount()
	m.tr.work.Add(rootWork(nRoots))
	rep.RootsScanned = int64(nRoots)
	m.env.Roots.Roots(m.tr.enqueueRoot)
	m.tr.drain()

	// Sweep phase: every allocated cell is examined; unmarked cells return
	// to their free lists. This is the whole-space cost that makes
	// MarkSweep pauses long at small heaps.
	live := m.allocated[:0]
	var freed int64
	var freedBytes units.ByteSize
	cells := int64(len(m.allocated))
	for _, r := range m.allocated {
		o := h.Get(r)
		if o.Flags&heap.FlagMark != 0 {
			o.Flags &^= heap.FlagMark
			o.Age++
			live = append(live, r)
		} else {
			m.space.FreeCell(o.Addr, o.Size)
			freed++
			freedBytes += units.ByteSize(o.Size)
			h.Free(r)
		}
	}
	m.allocated = live

	rep.ObjectsScanned = m.tr.objectsScanned
	rep.ObjectsFreed = freed
	rep.CellsSwept = cells
	rep.BytesFreed = freedBytes
	rep.LiveAfter = m.space.Used()
	rep.Phases, rep.Work = phased(m.tr.work, Work{}, sweepWork(cells, freed))
	m.stats.note(rep)
	m.env.emit(rep)
}

// MutatorLocality implements Collector: the non-moving space fragments over
// time, scattering the live set across more cache lines and pages than a
// compacted heap would occupy.
func (m *MarkSweep) MutatorLocality() float64 {
	return compactLocality - 0.07*m.space.Fragmentation()
}
