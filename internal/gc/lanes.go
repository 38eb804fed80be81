package gc

import (
	"jvmpower/internal/heap"
	"jvmpower/internal/units"
)

// Lanes runs one SemiSpace plan per heap size over one shared heap, so that
// one mutator drives every heap size of a sweep at once. This is exact for
// SemiSpace alone. Its reachability and trace order depend only on the
// object graph, which every lane shares, and a lane's own collections,
// counts and layout are kept in its plan; heap size changes only when the
// plan collects, the Ref numbering, and Object.Addr and Age, which no
// SemiSpace report reads. The other plans keep per-object collector state
// in the table (mark bits, free cells, remembered sets, false retention),
// which lanes sharing one table would see.
type Lanes struct {
	heap  *heap.Heap
	plans []*SemiSpace
	// left holds, for each lane that has left the set, the allocation
	// failure that made it leave.
	left []error
	live int
}

// NewLanes returns a set of SemiSpace plans, one per heap size, over
// env.Heap. Lane i's collection reports go to onCollection(i, report);
// env.OnCollection is not used.
func NewLanes(heapSizes []units.ByteSize, env Env, onCollection func(lane int, r CollectionReport)) (*Lanes, error) {
	l := &Lanes{heap: env.Heap, left: make([]error, len(heapSizes)), live: len(heapSizes)}
	for i, size := range heapSizes {
		if err := checkEnv(size, env); err != nil {
			return nil, err
		}
		laneEnv := env
		laneEnv.OnCollection = func(r CollectionReport) { onCollection(i, r) }
		l.plans = append(l.plans, NewSemiSpace(size, laneEnv))
	}
	return l, nil
}

// Plan returns lane i's collector.
func (l *Lanes) Plan(i int) *SemiSpace { return l.plans[i] }

// Left returns the allocation failure with which lane i left the set, or
// nil while it is in it.
func (l *Lanes) Left(i int) error { return l.left[i] }

// Alloc reserves size bytes in every lane still in the set, collecting in
// any whose semi-space is full, and creates one object for all of them. A
// lane that cannot make room leaves the set: from there on its mutator
// would differ from the one the others share. The last lane in the set
// never leaves; Alloc returns its error instead, exactly as its own
// SemiSpace.Alloc would, so a one-lane set is a plain SemiSpace.
func (l *Lanes) Alloc(size uint32, nrefs int) (heap.Ref, error) {
	var addr uint64
	for i, s := range l.plans {
		if l.left[i] != nil {
			continue
		}
		a, err := s.reserve(size)
		if err != nil {
			if l.live == 1 {
				return heap.Null, err
			}
			l.left[i] = err
			l.live--
			continue
		}
		// Object.Addr is one lane's address; no SemiSpace report reads it.
		addr = a
	}
	return l.heap.NewObject(size, nrefs, addr), nil
}

// WriteBarrier implements the mutator's barrier call: SemiSpace needs none.
func (l *Lanes) WriteBarrier(src, dst heap.Ref) int64 { return 0 }
