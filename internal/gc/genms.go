package gc

import (
	"jvmpower/internal/heap"
	"jvmpower/internal/units"
)

// GenMS is the generational mark-sweep plan of Figure 3: a copying nursery
// in front of a mark-sweep mature space. Nursery survivors are copied into
// free-list cells; full collections mark the whole live set and sweep the
// mature space. It combines cheap nursery reclamation with a mature space
// that needs no copy reserve, which is why it tracks GenCopy closely and
// wins at small heaps in Figure 7.
type GenMS struct {
	genBase
	mature     *heap.FreeListSpace
	matureObjs []heap.Ref
}

// NewGenMS returns a GenMS plan with the given total heap size: nursery
// (1/4) + a mark-sweep mature space (3/4).
func NewGenMS(heapSize units.ByteSize, env Env) *GenMS {
	g := &GenMS{}
	g.env = env
	g.planName = "GenMS"
	lay := heap.NewLayout()
	g.initNursery(lay, heapSize)
	g.mature = heap.NewFreeListSpace("mature-ms", lay.Take(heapSize-g.nursery.Extent()))

	g.promote = func(size uint32) (uint64, bool) { return g.mature.Alloc(size) }
	g.matureHasRoom = func(need units.ByteSize) bool { return g.mature.Free() >= need }
	g.matureFree = func() units.ByteSize { return g.mature.Free() }
	g.fullCollect = g.full
	g.onMature = func(r heap.Ref) { g.matureObjs = append(g.matureObjs, r) }
	return g
}

// Name implements Collector.
func (g *GenMS) Name() string { return "GenMS" }

// Alloc implements Collector.
func (g *GenMS) Alloc(size uint32, nrefs int) (heap.Ref, error) {
	return g.allocNursery(size, nrefs)
}

// Collect implements Collector.
func (g *GenMS) Collect(reason string) { g.full(reason) }

// full marks the whole live set, promotes live nursery objects into the
// mature free lists, and sweeps the mature space.
func (g *GenMS) full(reason string) {
	h := g.env.Heap
	rep := CollectionReport{Collector: g.planName, Kind: FullCollection, Reason: reason}

	g.tr.reset()
	g.tr.follow = nil
	var copied int64
	var copiedBytes units.ByteSize
	var wCopy Work
	promoted := make([]heap.Ref, 0, len(g.nurseryObjs)/4+1)
	g.tr.visit = func(r heap.Ref, o *heap.Object) {
		if o.Flags&heap.FlagMature != 0 {
			return // mature objects are marked in place
		}
		addr, ok := g.mature.Alloc(o.Size)
		if !ok {
			// No room to promote: the object survives in the nursery. The
			// nursery is not reset below unless it drained fully.
			return
		}
		h.SetAddr(r, addr)
		o.Flags |= heap.FlagMature
		o.Age++
		copied++
		copiedBytes += units.ByteSize(o.Size)
		wCopy.Add(copyWork(o.Size))
		promoted = append(promoted, r)
	}

	nRoots := g.env.Roots.RootCount()
	g.tr.work.Add(rootWork(nRoots))
	rep.RootsScanned = int64(nRoots)
	g.env.Roots.Roots(g.tr.enqueueRoot)
	g.tr.drain()

	// Sweep the mature space: every cell examined, unmarked cells freed.
	survivors := g.matureObjs[:0]
	var freed int64
	var freedBytes units.ByteSize
	cells := int64(len(g.matureObjs))
	for _, r := range g.matureObjs {
		o := h.Get(r)
		if o.Flags&heap.FlagMark != 0 {
			o.Flags &^= heap.FlagMark
			survivors = append(survivors, r)
		} else {
			g.mature.FreeCell(o.Addr, o.Size)
			freed++
			freedBytes += units.ByteSize(o.Size)
			h.Free(r)
		}
	}
	wSweep := sweepWork(cells, freed)
	rep.CellsSwept = cells

	// Reap the nursery: promoted objects join the mature list; unpromoted
	// survivors (promotion failure) stay in the nursery list.
	left := g.nurseryObjs[:0]
	for _, r := range g.nurseryObjs {
		o := h.Get(r)
		switch {
		case o.Flags&heap.FlagMature != 0:
			// Promoted during this collection; already appended below.
		case o.Flags&heap.FlagMark != 0:
			o.Flags &^= heap.FlagMark
			left = append(left, r)
		default:
			freed++
			freedBytes += units.ByteSize(o.Size)
			h.Free(r)
		}
	}
	survivors = append(survivors, promoted...)
	for _, r := range promoted {
		h.Get(r).Flags &^= heap.FlagMark
	}
	g.matureObjs = survivors
	g.nurseryObjs = left
	if len(left) == 0 {
		g.nursery.Reset()
	}
	g.clearRemset()

	rep.ObjectsScanned = g.tr.objectsScanned
	rep.ObjectsCopied = copied
	rep.ObjectsFreed = freed
	rep.BytesCopied = copiedBytes
	rep.BytesFreed = freedBytes
	rep.LiveAfter = g.mature.Used() + g.nursery.Used()
	rep.Phases, rep.Work = phased(g.tr.work, wCopy, wSweep)
	g.stats.note(rep)
	g.env.emit(rep)
}

// MutatorLocality implements Collector: fresh allocation is contiguous in
// the nursery, but the mature space fragments like any free-list heap.
func (g *GenMS) MutatorLocality() float64 {
	return compactLocality - 0.05*g.mature.Fragmentation()
}
