package gc

import (
	"fmt"

	"jvmpower/internal/heap"
	"jvmpower/internal/units"
)

// SemiSpace is the classic two-space copying collector (Section III-B of
// the paper): the heap is split into two halves; allocation bumps through
// one half, and when it fills, the live objects are traced and copied into
// the other half, after which the halves swap roles. Collection cost is
// proportional to the live set only; dead objects are reclaimed for free.
// Copying compacts survivors, which is the mutator-locality advantage the
// paper observes letting SemiSpace beat GenCopy on _209_db at large heaps.
//
// The object table is evacuated the same way (heap.BeginEvacuation):
// survivors move to a fresh table in trace order, and the simulator, too,
// never touches a dead object again.
type SemiSpace struct {
	env      Env
	from, to *heap.BumpSpace

	tr    tracer
	stats Stats
	// sinceGC is the allocation volume since the last collection, used by
	// MutatorLocality to model the gradual spreading of the working set.
	sinceGC units.ByteSize
	// objects and bytes are what this plan holds: the survivors of its
	// last collection and everything it has allocated since. A collection
	// measures what it freed against them, not against the heap's totals,
	// which the other plans of a Lanes set move too.
	objects int64
	bytes   units.ByteSize
}

// NewSemiSpace returns a SemiSpace plan with the given total heap size.
func NewSemiSpace(heapSize units.ByteSize, env Env) *SemiSpace {
	lay := heap.NewLayout()
	half := heapSize / 2
	s := &SemiSpace{
		env:  env,
		from: heap.NewBumpSpace("ss-0", lay.Take(half)),
		to:   heap.NewBumpSpace("ss-1", lay.Take(half)),
	}
	s.tr.h = env.Heap
	return s
}

// Name implements Collector.
func (s *SemiSpace) Name() string { return "SemiSpace" }

// Stats implements Collector.
func (s *SemiSpace) Stats() Stats { return s.stats }

// Alloc implements Collector.
func (s *SemiSpace) Alloc(size uint32, nrefs int) (heap.Ref, error) {
	addr, err := s.reserve(size)
	if err != nil {
		return heap.Null, err
	}
	return s.env.Heap.NewObject(size, nrefs, addr), nil
}

// reserve bumps size bytes through the current semi-space, collecting
// when it is full, and counts the object as this plan's; the caller
// creates the object at the returned address.
func (s *SemiSpace) reserve(size uint32) (uint64, error) {
	addr, ok := s.from.Alloc(size)
	if !ok {
		s.collect("allocation failure")
		addr, ok = s.from.Alloc(size)
		if !ok {
			return 0, fmt.Errorf("%w: SemiSpace: %d bytes requested, %v free after full GC",
				ErrOutOfMemory, size, s.from.Free())
		}
	}
	s.count(1, units.ByteSize(size))
	return addr, nil
}

// count adds objects objects of bytes bytes, just reserved, to what the
// plan holds and has allocated since its last collection.
func (s *SemiSpace) count(objects int64, bytes units.ByteSize) {
	s.sinceGC += bytes
	s.objects += objects
	s.bytes += bytes
}

// WriteBarrier implements Collector. SemiSpace needs no barrier.
func (s *SemiSpace) WriteBarrier(src, dst heap.Ref) int64 { return 0 }

// Collect implements Collector.
func (s *SemiSpace) Collect(reason string) { s.collect(reason) }

func (s *SemiSpace) collect(reason string) {
	h := s.env.Heap
	rep := CollectionReport{Collector: s.Name(), Kind: FullCollection, Reason: reason}
	liveBefore, bytesBefore := s.objects, s.bytes

	s.tr.reset()
	var copied, copiedWords int64
	var copiedBytes units.ByteSize
	s.tr.visit = func(r heap.Ref, o *heap.Object) {
		addr, ok := s.to.Alloc(o.Size)
		if !ok {
			// The live set exceeds a semi-space: a genuine OOM condition.
			// Leave the object at its address; the retry in Alloc will
			// fail and surface ErrOutOfMemory.
			return
		}
		o.Addr = addr
		copied++
		copiedBytes += units.ByteSize(o.Size)
		copiedWords += copyWords(o.Size)
	}

	// Root scan and closure: survivors are copied on first reach and every
	// slot is rewritten to the copy; what the trace never reaches is dead.
	nRoots := s.env.Roots.RootCount()
	rep.RootsScanned = int64(nRoots)
	h.BeginEvacuation()
	s.env.Roots.Roots(s.tr.forward)
	s.tr.drainForwarding()
	h.EndEvacuation()
	s.objects, s.bytes = h.LiveCount(), h.LiveBytes()

	// Swap semi-spaces.
	s.from.Reset()
	s.from, s.to = s.to, s.from
	s.sinceGC = 0

	rep.ObjectsScanned = s.tr.objectsScanned
	rep.ObjectsCopied = copied
	rep.ObjectsFreed = liveBefore - s.objects
	rep.BytesCopied = copiedBytes
	rep.BytesFreed = bytesBefore - s.bytes
	rep.LiveAfter = s.from.Used()
	rep.Phases, rep.Work = phased(traceWork(nRoots, s.tr.objectsScanned, s.tr.refsScanned), copyWork(copiedWords), Work{})
	s.stats.note(rep)
	s.env.emit(rep)
}

// MutatorLocality implements Collector. Whole-heap compaction yields the
// best locality of any plan — every survivor is packed against its
// neighbors, old and young alike (the advantage Section VI-B credits for
// _209_db's SemiSpace win at 128 MB) — decaying slightly as new allocation
// spreads the working set back across the semi-space.
func (s *SemiSpace) MutatorLocality() float64 {
	extent := float64(s.from.Extent())
	if extent == 0 {
		return compactLocality
	}
	spread := float64(s.sinceGC) / extent // 0 (just collected) .. 1 (half full of fresh allocation)
	if spread > 1 {
		spread = 1
	}
	return compactLocality + 0.02 - 0.05*spread
}

// Locality quality levels shared by the plans. Copying plans keep the live
// set compact; free-list plans lose locality to fragmentation.
const compactLocality = 0.80
