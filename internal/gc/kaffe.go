package gc

import (
	"fmt"

	"jvmpower/internal/heap"
	"jvmpower/internal/units"
)

// KaffeMS models Kaffe 1.1.4's collector: an incremental, conservative,
// three-color mark-and-sweep collector over a free-list heap (Section
// IV-A). A collection cycle starts when the heap crosses an occupancy
// threshold; marking proceeds in bounded increments interleaved with
// allocation (objects allocated mid-cycle are allocated black), an
// incremental-update step grays targets of reference stores, and the cycle
// finishes with a root re-scan and a sweep. Conservatism is modeled by a
// small deterministic fraction of unreachable objects being retained as if
// pinned by false pointers.
type KaffeMS struct {
	env      Env
	heapSize units.ByteSize
	space    *heap.FreeListSpace

	allocated []heap.Ref
	tr        tracer
	stats     Stats

	active bool
	// sinceCycle is allocation volume since the last completed cycle; a
	// new cycle starts only after real progress, so retention-fragmented
	// heaps do not thrash back-to-back cycles.
	sinceCycle units.ByteSize
	cycleNum   uint64
	rng        uint64
}

// Tuning for the incremental cycle.
const (
	// kaffeStartFreeFrac starts a collection cycle when usable free space
	// falls below this fraction of the heap.
	kaffeStartFreeFrac = 0.18
	// kaffeLazySweepFactor discounts sweep work: Kaffe sweeps lazily,
	// amortizing most cell examination into allocation-time checks.
	kaffeLazySweepFactor = 0.55
	// kaffeIncrementObjects bounds the objects marked per increment.
	kaffeIncrementObjects = 512
	// kaffeFalseRetention is the probability an unreachable object is
	// conservatively retained for one cycle.
	kaffeFalseRetention = 0.02
)

// NewKaffeMS returns Kaffe's collector with the given total heap size.
func NewKaffeMS(heapSize units.ByteSize, env Env) *KaffeMS {
	lay := heap.NewLayout()
	k := &KaffeMS{
		env:      env,
		heapSize: heapSize,
		space:    heap.NewFreeListSpace("kaffe-ms", lay.Take(heapSize)),
		rng:      env.Seed ^ 0x9E3779B97F4A7C15,
	}
	k.tr.h = env.Heap
	return k
}

// Name implements Collector.
func (k *KaffeMS) Name() string { return "KaffeMS" }

// Stats implements Collector.
func (k *KaffeMS) Stats() Stats { return k.stats }

// Alloc implements Collector.
func (k *KaffeMS) Alloc(size uint32, nrefs int) (heap.Ref, error) {
	// Start or advance the incremental cycle at allocation points (Kaffe's
	// GC points are allocation sites).
	k.sinceCycle += units.ByteSize(size)
	lowFree := float64(k.space.Free()) < kaffeStartFreeFrac*float64(k.space.Extent())
	if !k.active && lowFree && k.sinceCycle > k.heapSize/16 {
		k.startCycle("low free space")
	} else if k.active {
		k.increment()
	}

	addr, ok := k.space.Alloc(size)
	if !ok {
		// Exhausted: finish any in-flight cycle (or run a whole one)
		// synchronously and retry.
		if !k.active {
			k.startCycle("allocation failure")
		}
		k.finishCycle()
		addr, ok = k.space.Alloc(size)
		if !ok {
			return heap.Null, fmt.Errorf("%w: KaffeMS: %d bytes requested, %v free after full GC",
				ErrOutOfMemory, size, k.space.Free())
		}
	}
	r := k.env.Heap.NewObject(size, nrefs, addr)
	if k.active {
		// Allocate black: objects born during a cycle survive its sweep.
		k.env.Heap.Get(r).Flags |= heap.FlagMark
	}
	k.allocated = append(k.allocated, r)
	return r, nil
}

// WriteBarrier implements Collector. Kaffe has no compiled-in barrier cost;
// for model soundness the incremental cycle grays store targets so objects
// cannot be hidden from an in-flight mark.
func (k *KaffeMS) WriteBarrier(src, dst heap.Ref) int64 {
	if k.active && dst != heap.Null {
		k.tr.gray(dst)
	}
	return 0
}

// Collect implements Collector: run a complete synchronous cycle.
func (k *KaffeMS) Collect(reason string) {
	if !k.active {
		k.startCycle(reason)
	}
	k.finishCycle()
}

func (k *KaffeMS) startCycle(reason string) {
	k.active = true
	k.cycleNum++
	k.tr.reset()
	k.tr.follow = nil
	k.tr.visit = nil

	rep := CollectionReport{Collector: k.Name(), Kind: IncrementStep, Reason: "cycle start: " + reason}
	nRoots := k.env.Roots.RootCount()
	k.tr.work.Add(rootWork(nRoots))
	rep.RootsScanned = int64(nRoots)
	k.env.Roots.Roots(k.tr.enqueueRoot)
	rep.Work = k.tr.work
	k.tr.work = Work{}
	k.stats.note(rep)
	k.env.emit(rep)
}

// increment performs one bounded marking step.
func (k *KaffeMS) increment() {
	if !k.tr.pending() {
		k.finishCycle()
		return
	}
	before := k.tr.objectsScanned
	k.tr.drainN(kaffeIncrementObjects)
	rep := CollectionReport{
		Collector:      k.Name(),
		Kind:           IncrementStep,
		Reason:         "mark increment",
		ObjectsScanned: k.tr.objectsScanned - before,
		Work:           k.tr.work,
	}
	k.tr.work = Work{}
	k.stats.note(rep)
	k.env.emit(rep)
}

// finishCycle drains remaining marking, re-scans roots, sweeps, and ends
// the cycle.
func (k *KaffeMS) finishCycle() {
	h := k.env.Heap
	rep := CollectionReport{Collector: k.Name(), Kind: FullCollection, Reason: "cycle finish"}
	scannedBefore := k.tr.objectsScanned

	// Final root re-scan catches references created since the snapshot.
	nRoots := k.env.Roots.RootCount()
	k.tr.work.Add(rootWork(nRoots))
	rep.RootsScanned = int64(nRoots)
	k.env.Roots.Roots(k.tr.enqueueRoot)
	k.tr.drain()

	// Sweep with conservative retention.
	live := k.allocated[:0]
	var freed int64
	var freedBytes units.ByteSize
	cells := int64(len(k.allocated))
	for _, r := range k.allocated {
		o := h.Get(r)
		if o.Flags&heap.FlagMark != 0 {
			o.Flags &^= heap.FlagMark
			o.Age++
			live = append(live, r)
			continue
		}
		if k.falselyRetained(r) {
			// A stack or register word happened to look like a pointer to
			// this object; the conservative collector must keep it.
			o.Age++
			live = append(live, r)
			continue
		}
		k.space.FreeCell(o.Addr, o.Size)
		freed++
		freedBytes += units.ByteSize(o.Size)
		h.Free(r)
	}
	k.allocated = live
	k.active = false
	k.sinceCycle = 0
	wSweep := sweepWork(cells, freed).Scale(kaffeLazySweepFactor)

	rep.ObjectsScanned = k.tr.objectsScanned - scannedBefore
	rep.ObjectsFreed = freed
	rep.CellsSwept = cells
	rep.BytesFreed = freedBytes
	rep.LiveAfter = k.space.Used()
	rep.Phases, rep.Work = phased(k.tr.work, Work{}, wSweep)
	k.stats.note(rep)
	k.env.emit(rep)
}

// falselyRetained deterministically decides whether an unreachable object
// is pinned by a false pointer this cycle (splitmix64 over seed, ref, and
// cycle so results are reproducible).
func (k *KaffeMS) falselyRetained(r heap.Ref) bool {
	x := k.rng ^ (uint64(r) * 0xBF58476D1CE4E5B9) ^ (k.cycleNum * 0x94D049BB133111EB)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) < kaffeFalseRetention
}

// MutatorLocality implements Collector: same non-moving fragmentation
// behavior as MarkSweep.
func (k *KaffeMS) MutatorLocality() float64 {
	return compactLocality - 0.07*k.space.Fragmentation()
}
