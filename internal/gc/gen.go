package gc

import (
	"fmt"

	"jvmpower/internal/heap"
	"jvmpower/internal/units"
)

// genBase implements the nursery-side machinery shared by the two
// generational plans of Figure 3 (GenCopy and GenMS): bump allocation into
// a nursery, a write-barrier-maintained remembered set of mature objects
// that may point into the nursery, and minor collections that copy nursery
// survivors into the mature space. The plans differ only in how the mature
// space is managed, which they supply through the hooks below.
type genBase struct {
	env      Env
	planName string

	nursery     *heap.BumpSpace
	nurseryObjs []heap.Ref

	// remset holds mature objects recorded by the write barrier as possibly
	// holding nursery pointers. FlagRemset on the object dedupes entries.
	remset []heap.Ref

	tr    tracer
	stats Stats

	// promote allocates room for a nursery survivor in the mature space.
	promote func(size uint32) (uint64, bool)
	// matureHasRoom reports whether the mature space can absorb need bytes
	// of promotion (the copy reserve check run before each minor GC).
	matureHasRoom func(need units.ByteSize) bool
	// matureFree reports the mature space's available bytes; the nursery's
	// effective size adapts to it (Appel-style) so worst-case promotion
	// always fits.
	matureFree func() units.ByteSize
	// fullCollect runs a full-heap collection.
	fullCollect func(reason string)
	// onMature records an object that is now resident in the mature space
	// (promoted survivor or direct large-object allocation), so the plan
	// can enumerate the mature population during full collections.
	onMature func(heap.Ref)
}

// NurserySize returns the nursery extent used for a total heap size: a
// quarter of the heap, the bounded-nursery configuration. (Jikes 2.4.1's
// default is an Appel-style variable nursery; the bounded quarter-heap
// nursery preserves the property the results depend on — nursery size, and
// hence minor-GC frequency, scales with heap size.)
func NurserySize(heapSize units.ByteSize) units.ByteSize {
	n := heapSize / 4
	if n < 256*units.KB {
		n = 256 * units.KB
	}
	return n
}

func (g *genBase) initNursery(lay *heap.Layout, heapSize units.ByteSize) {
	g.nursery = heap.NewBumpSpace("nursery", lay.Take(NurserySize(heapSize)))
	g.tr.h = g.env.Heap
}

// Stats implements Collector.
func (g *genBase) Stats() Stats { return g.stats }

// allocNursery is the common allocation path. Objects larger than half the
// nursery go straight to the mature space, as real nursery plans route
// large objects around the nursery.
func (g *genBase) allocNursery(size uint32, nrefs int) (heap.Ref, error) {
	if units.ByteSize(size) > g.nursery.Extent()/2 {
		addr, ok := g.promote(size)
		if !ok {
			g.fullCollect("large object allocation")
			addr, ok = g.promote(size)
			if !ok {
				return heap.Null, fmt.Errorf("%w: %s: large object of %d bytes", ErrOutOfMemory, g.planName, size)
			}
		}
		r := g.env.Heap.NewObject(size, nrefs, addr)
		g.env.Heap.Get(r).Flags |= heap.FlagMature
		g.noteMatureObject(r)
		return r, nil
	}
	if !g.roomInNursery(size) {
		g.minorCollect("nursery full")
		if !g.roomInNursery(size) {
			g.fullCollect("nursery full after minor collection")
			if !g.roomInNursery(size) {
				return heap.Null, fmt.Errorf("%w: %s: %d bytes requested after full collection",
					ErrOutOfMemory, g.planName, size)
			}
		}
	}
	addr, ok := g.nursery.Alloc(size)
	if !ok {
		return heap.Null, fmt.Errorf("%w: %s: nursery bump failed for %d bytes", ErrOutOfMemory, g.planName, size)
	}
	r := g.env.Heap.NewObject(size, nrefs, addr)
	g.nurseryObjs = append(g.nurseryObjs, r)
	return r, nil
}

// roomInNursery applies the adaptive nursery limit: the nursery may fill
// only to what the mature space could absorb if everything survived (with
// a small safety margin), shrinking the effective nursery as the mature
// space fills — the Appel-style behavior that lets generational plans run
// in small heaps without thrashing full collections.
func (g *genBase) roomInNursery(size uint32) bool {
	limit := g.nursery.Extent()
	if mf := units.ByteSize(float64(g.matureFree()) * 0.9); mf < limit {
		limit = mf
	}
	if floor := 128 * units.KB; limit < floor {
		limit = floor
	}
	if g.nursery.Used()+units.ByteSize(size) > limit {
		return false
	}
	return g.nursery.Free() >= units.ByteSize(size)
}

func (g *genBase) noteMatureObject(r heap.Ref) { g.onMature(r) }

// WriteBarrier implements Collector: the inline filter runs on every
// reference store; stores from a mature source to a nursery target record
// the source in the remembered set. The returned instruction count is the
// mutator overhead the paper identifies as undermining GenCopy's locality
// advantage on _209_db.
func (g *genBase) WriteBarrier(src, dst heap.Ref) int64 {
	g.stats.BarrierStores++
	if src == heap.Null || dst == heap.Null {
		return barrierFilterInstr
	}
	so := g.env.Heap.Get(src)
	if so.Flags&heap.FlagMature == 0 {
		return barrierFilterInstr
	}
	do := g.env.Heap.Get(dst)
	if do.Flags&heap.FlagMature != 0 {
		return barrierFilterInstr
	}
	if so.Flags&heap.FlagRemset != 0 {
		return barrierFilterInstr
	}
	so.Flags |= heap.FlagRemset
	g.remset = append(g.remset, src)
	g.stats.RemsetRecorded++
	return barrierFilterInstr + barrierRecordInstr
}

// minorCollect evacuates the nursery into the mature space.
func (g *genBase) minorCollect(reason string) {
	// Copy-reserve check: if the mature space could not absorb the whole
	// nursery, fall back to a full collection first.
	if !g.matureHasRoom(g.nursery.Used()) {
		g.fullCollect("mature space full before nursery collection")
		return
	}
	h := g.env.Heap
	rep := CollectionReport{Collector: g.planName, Kind: NurseryCollection, Reason: reason}

	g.tr.reset()
	nurseryRegion := g.nursery.Region()
	g.tr.follow = func(r heap.Ref, o *heap.Object) bool {
		return o.Flags&heap.FlagMature == 0 && nurseryRegion.Contains(o.Addr)
	}
	var copied int64
	var copiedBytes units.ByteSize
	var wCopy Work
	g.tr.visit = func(r heap.Ref, o *heap.Object) {
		addr, ok := g.promote(o.Size)
		if !ok {
			// Copy reserve was checked, but free-list mature spaces can
			// still fail on size-class exhaustion; leave in place and let
			// the allocation retry trigger a full collection.
			return
		}
		h.SetAddr(r, addr)
		o.Flags |= heap.FlagMature
		o.Age++
		copied++
		copiedBytes += units.ByteSize(o.Size)
		wCopy.Add(copyWork(o.Size))
		g.noteMatureObject(r)
	}

	// Roots: thread stacks/statics plus the remembered set.
	nRoots := g.env.Roots.RootCount()
	g.tr.work.Add(rootWork(nRoots))
	rep.RootsScanned = int64(nRoots)
	g.env.Roots.Roots(g.tr.enqueueRoot)
	for _, src := range g.remset {
		o := h.Get(src)
		o.Flags &^= heap.FlagRemset
		if o.Size == 0 {
			continue // freed by an earlier full collection
		}
		refs := o.RefsIn(h)
		g.tr.work.Add(scanWork(len(refs)))
		rep.RootsScanned++
		for _, c := range refs {
			g.tr.enqueue(c)
		}
	}
	g.remset = g.remset[:0]
	g.tr.drain()

	// Release dead nursery objects. Survivors were promoted in place; the
	// rare survivor that could not be promoted (free-list size-class
	// exhaustion in a GenMS mature space) stays in the nursery, which then
	// cannot be reset this cycle.
	var freed int64
	var freedBytes units.ByteSize
	left := g.nurseryObjs[:0]
	for _, r := range g.nurseryObjs {
		o := h.Get(r)
		switch {
		case o.Flags&heap.FlagMature != 0:
			o.Flags &^= heap.FlagMark
		case o.Flags&heap.FlagMark != 0:
			o.Flags &^= heap.FlagMark
			left = append(left, r)
		default:
			freed++
			freedBytes += units.ByteSize(o.Size)
			h.Free(r)
		}
	}
	g.nurseryObjs = left
	if len(left) == 0 {
		g.nursery.Reset()
	}

	rep.ObjectsScanned = g.tr.objectsScanned
	rep.ObjectsCopied = copied
	rep.ObjectsFreed = freed
	rep.BytesCopied = copiedBytes
	rep.BytesFreed = freedBytes
	rep.Phases, rep.Work = phased(g.tr.work, wCopy, Work{})
	g.stats.note(rep)
	g.env.emit(rep)
}

// clearRemset drops the remembered set (after a full collection, which
// empties the nursery and so invalidates all entries).
func (g *genBase) clearRemset() {
	for _, src := range g.remset {
		o := g.env.Heap.Get(src)
		if o.Size != 0 {
			o.Flags &^= heap.FlagRemset
		}
	}
	g.remset = g.remset[:0]
}
