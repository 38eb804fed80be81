package gc

import (
	"jvmpower/internal/heap"
	"jvmpower/internal/units"
)

// GenCopy is the generational copying plan of Figure 3: new objects are
// allocated in a nursery; nursery collections copy survivors into a mature
// space managed as a pair of semi-spaces; full collections run a semi-space
// copy over the whole live set. It trades a per-store write barrier for
// cheap, frequent nursery collections — the configuration the paper finds
// most energy-efficient at small heaps.
type GenCopy struct {
	genBase
	matureFrom, matureTo *heap.BumpSpace
	matureObjs           []heap.Ref
	// oom latches a full collection that could not fit the live set in a
	// mature semi-space; the next allocation surfaces ErrOutOfMemory.
	oom bool
}

// NewGenCopy returns a GenCopy plan with the given total heap size. The
// heap is split as nursery (1/4) + two mature semi-spaces (3/8 each).
func NewGenCopy(heapSize units.ByteSize, env Env) *GenCopy {
	g := &GenCopy{}
	g.env = env
	g.planName = "GenCopy"
	lay := heap.NewLayout()
	g.initNursery(lay, heapSize)
	matureHalf := (heapSize - g.nursery.Extent()) / 2
	g.matureFrom = heap.NewBumpSpace("mature-0", lay.Take(matureHalf))
	g.matureTo = heap.NewBumpSpace("mature-1", lay.Take(matureHalf))

	g.promote = func(size uint32) (uint64, bool) { return g.matureFrom.Alloc(size) }
	g.matureHasRoom = func(need units.ByteSize) bool { return g.matureFrom.Free() >= need }
	g.matureFree = func() units.ByteSize { return g.matureFrom.Free() }
	g.fullCollect = g.full
	g.onMature = func(r heap.Ref) { g.matureObjs = append(g.matureObjs, r) }
	return g
}

// Name implements Collector.
func (g *GenCopy) Name() string { return "GenCopy" }

// Alloc implements Collector.
func (g *GenCopy) Alloc(size uint32, nrefs int) (heap.Ref, error) {
	if g.oom {
		return heap.Null, ErrOutOfMemory
	}
	return g.allocNursery(size, nrefs)
}

// Collect implements Collector.
func (g *GenCopy) Collect(reason string) { g.full(reason) }

// full performs a whole-heap copying collection: all live objects (nursery
// and mature) are evacuated into the empty mature semi-space.
func (g *GenCopy) full(reason string) {
	h := g.env.Heap
	rep := CollectionReport{Collector: g.planName, Kind: FullCollection, Reason: reason}

	g.tr.reset()
	g.tr.follow = nil
	var copied int64
	var copiedBytes units.ByteSize
	var wCopy Work
	copyFailed := false
	g.tr.visit = func(r heap.Ref, o *heap.Object) {
		addr, ok := g.matureTo.Alloc(o.Size)
		if !ok {
			copyFailed = true
			return
		}
		h.SetAddr(r, addr)
		o.Flags |= heap.FlagMature
		o.Age++
		copied++
		copiedBytes += units.ByteSize(o.Size)
		wCopy.Add(copyWork(o.Size))
	}

	nRoots := g.env.Roots.RootCount()
	g.tr.work.Add(rootWork(nRoots))
	rep.RootsScanned = int64(nRoots)
	g.env.Roots.Roots(g.tr.enqueueRoot)
	g.tr.drain()

	// Release the dead; gather all survivors into the new mature list.
	survivors := g.matureObjs[:0]
	var freed int64
	var freedBytes units.ByteSize
	reap := func(list []heap.Ref) {
		for _, r := range list {
			o := h.Get(r)
			if o.Flags&heap.FlagMark != 0 {
				o.Flags &^= heap.FlagMark
				survivors = append(survivors, r)
			} else {
				freed++
				freedBytes += units.ByteSize(o.Size)
				h.Free(r)
			}
		}
	}
	reap(g.matureObjs)
	reap(g.nurseryObjs)
	g.matureObjs = survivors
	g.nurseryObjs = g.nurseryObjs[:0]
	g.clearRemset()

	if copyFailed {
		// The live set exceeds a mature semi-space: out of memory. Leave
		// the spaces un-flipped so surviving addresses stay valid.
		g.oom = true
	} else {
		g.matureFrom.Reset()
		g.matureFrom, g.matureTo = g.matureTo, g.matureFrom
		g.nursery.Reset()
	}

	rep.ObjectsScanned = g.tr.objectsScanned
	rep.ObjectsCopied = copied
	rep.ObjectsFreed = freed
	rep.BytesCopied = copiedBytes
	rep.BytesFreed = freedBytes
	rep.LiveAfter = g.matureFrom.Used()
	rep.Phases, rep.Work = phased(g.tr.work, wCopy, Work{})
	g.stats.note(rep)
	g.env.emit(rep)
}

// MutatorLocality implements Collector: both generations are compacted by
// copying, so the mutator sees near-best-case locality.
func (g *GenCopy) MutatorLocality() float64 {
	extent := float64(g.nursery.Extent())
	spread := 0.0
	if extent > 0 {
		spread = float64(g.nursery.Used()) / extent
	}
	return compactLocality - 0.03*spread
}
