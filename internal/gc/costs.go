package gc

// Cost model for collector work, in instructions and memory accesses
// (words). The constants are calibrated so that, run through the platform
// timing model, the collectors reproduce the component-level behavior the
// paper measures: tracing is pointer chasing (very poor locality, the
// source of the GC's 54-56% L2 miss rate and 0.55 IPC on the P6), copying
// adds streaming traffic, and sweeping is a sequential pass with good
// spatial locality.
const (
	// Root scanning: stack/static slot decode and test.
	rootScanInstrPerSlot = 10

	// Tracing: per object scanned (header decode, mark test/set, enqueue)
	// and per outgoing reference examined.
	scanInstrPerObject = 26
	scanInstrPerRef    = 7

	// Copying: per word moved (load+store+bookkeeping amortized).
	copyInstrPerWord = 3

	// Sweeping: per cell examined during the sweep pass.
	sweepInstrPerCell = 12

	// Free-list cell release bookkeeping.
	freeInstrPerCell = 9

	// Write barrier: every reference store pays the inline filter; stores
	// that record a remembered-set entry pay the buffer insertion too.
	barrierFilterInstr = 6
	barrierRecordInstr = 28

	// Allocation sequences (charged to the mutator by the VM, but defined
	// here with the rest of the memory-management cost model).
	bumpAllocInstr     = 7  // pointer bump + limit check
	freeListAllocInstr = 21 // size-class lookup + list pop / frontier carve
)

// Access-locality characterizations for the analytic cache model (see
// cpu.AnalyticMisses for the semantics: the fraction of accesses hitting
// near the core through temporal or same-line spatial reuse). Tracing gets
// a few same-line accesses per object and then a cold pointer jump; its
// non-local accesses span the whole live set, which is what drives the GC's
// measured L2 miss rate.
const (
	traceLocality = 0.60 // per-object line reuse, then a cold jump
	copyLocality  = 0.94 // word-granular streaming: ~1 miss per line
	sweepLocality = 0.92 // sequential pass over the space
	rootLocality  = 0.92 // stacks and statics are compact and hot

	// Miss-level parallelism per phase: tracing chases dependent pointers
	// (the worklist exposes a little parallelism); copying and sweeping
	// stream and prefetch well.
	traceMLP = 2.0
	copyMLP  = 4.0
	sweepMLP = 5.0
	rootMLP  = 2.0
)

// Each helper prices a whole phase from the volumes a collector counted
// during it, so the phase's locality and MLP are set once, from the phase's
// constants.

// traceWork returns the work of a trace phase: scanning nRoots root slots,
// then objs objects holding refs outgoing references.
func traceWork(nRoots int, objs, refs int64) Work {
	w := rootWork(nRoots)
	w.Add(scanWork(objs, refs))
	return w
}

// scanWork returns the tracing work for scanning objs objects holding refs
// outgoing references: per object, read the header, test/set the mark and
// push and pop the worklist; per reference, read its slot.
func scanWork(objs, refs int64) Work {
	return Work{
		Instructions: objs*scanInstrPerObject + refs*scanInstrPerRef,
		Reads:        4*objs + refs, // header, mark word, slots, worklist
		Writes:       2 * objs,      // mark/forward update, worklist push
		Locality:     traceLocality,
		MLP:          traceMLP,
	}
}

// copyWords returns the words a copy of a size-byte object moves.
func copyWords(size uint32) int64 { return int64(size+3) / 4 }

// copyWork returns the work of a copy phase that moved words words.
func copyWork(words int64) Work {
	return Work{
		Instructions: words * copyInstrPerWord,
		Reads:        words,
		Writes:       words,
		Locality:     copyLocality,
		MLP:          copyMLP,
	}
}

// sweepWork returns the work to examine cells cells during a sweep, of
// which freed were released to the free lists.
func sweepWork(cells, freed int64) Work {
	return Work{
		Instructions: cells*sweepInstrPerCell + freed*freeInstrPerCell,
		Reads:        2 * cells,
		Writes:       2 * freed,
		Locality:     sweepLocality,
		MLP:          sweepMLP,
	}
}

// rootWork returns the work to scan n root slots.
func rootWork(n int) Work {
	return Work{
		Instructions: int64(n) * rootScanInstrPerSlot,
		Reads:        int64(n),
		Writes:       0,
		Locality:     rootLocality,
		MLP:          rootMLP,
	}
}

// AllocCost reports the mutator-side instruction cost of one allocation
// under the given discipline (bump pointer vs segregated free list). The VM
// charges this to the application component, mirroring inlined allocation
// sequences in compiled code.
func AllocCost(freeList bool) int64 {
	if freeList {
		return freeListAllocInstr
	}
	return bumpAllocInstr
}
