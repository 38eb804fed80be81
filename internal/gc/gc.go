// Package gc implements the garbage collectors whose energy and power
// behavior the paper characterizes: the four Jikes RVM / MMTk-style plans of
// Figure 3 (SemiSpace, MarkSweep, GenCopy, GenMS) and Kaffe's incremental
// conservative tricolor mark-sweep collector.
//
// The collectors operate on real object graphs in internal/heap: they trace
// actual references, genuinely relocate objects (copying plans), maintain
// real remembered sets via write barriers (generational plans), and suffer
// real fragmentation (free-list plans). Every collection reports the work it
// performed — instructions, memory reads/writes, and an access-locality
// characterization — which the VM converts into execution slices attributed
// to the GC component, exactly as the paper's component-ID register
// attributes GC execution on hardware.
package gc

import (
	"errors"
	"fmt"

	"jvmpower/internal/heap"
	"jvmpower/internal/units"
	"jvmpower/internal/work"
)

// ErrOutOfMemory is returned by Alloc when a full collection cannot free
// enough space to satisfy the request.
var ErrOutOfMemory = errors.New("gc: out of memory")

// Work is the shared work-accounting unit (see internal/work). GC tracing
// reports work with very poor locality — the source of the 54-56% L2 miss
// rates the paper measures for the collector — while sweeping is a
// sequential scan with good spatial locality.
type Work = work.Work

// CollectionKind labels what a collection covered.
type CollectionKind string

// Collection kinds.
const (
	FullCollection    CollectionKind = "full"
	NurseryCollection CollectionKind = "nursery"
	IncrementStep     CollectionKind = "increment"
)

// CollectionReport describes one garbage collection (or one increment of an
// incremental collection). The VM turns each report into GC-component
// execution, so collection cost lands on the simulated timeline at the
// allocation site that triggered it — the same interleaving the paper's
// component-ID register observes.
type CollectionReport struct {
	Collector string
	Kind      CollectionKind
	Reason    string

	// Phases decomposes Work into the collection's phases (trace, copy,
	// sweep), in execution order; the VM emits one GC slice per phase so
	// the DAQ sees the power texture of real collections (pointer-chasing
	// trace vs streaming copy/sweep).
	Phases []Work

	RootsScanned   int64
	ObjectsScanned int64
	ObjectsCopied  int64
	ObjectsFreed   int64
	CellsSwept     int64
	BytesCopied    units.ByteSize
	BytesFreed     units.ByteSize
	LiveAfter      units.ByteSize

	Work Work
}

// phased assembles the Phases list and total work from per-phase buckets,
// in execution order (trace, copy, sweep), skipping empty phases.
func phased(trace, copy, sweep Work) ([]Work, Work) {
	var out []Work
	var total Work
	for _, w := range []Work{trace, copy, sweep} {
		if w.IsZero() {
			continue
		}
		total.Add(w)
		out = append(out, w)
	}
	return out, total
}

// Env supplies a collector's dependencies.
type Env struct {
	Heap *heap.Heap
	// Roots enumerates the root set (thread stacks, statics, VM internals).
	Roots RootProvider
	// OnCollection receives each collection's report; the VM uses it to
	// advance simulated time under the GC component ID. May be nil.
	OnCollection func(CollectionReport)
	// Seed drives the deterministic pseudo-randomness used by the
	// conservative collector's false-pointer retention model.
	Seed uint64
}

func (e *Env) emit(r CollectionReport) {
	if e.OnCollection != nil {
		e.OnCollection(r)
	}
}

// RootProvider enumerates GC roots.
type RootProvider interface {
	// Roots calls fn with the address of every root slot, in a fixed
	// order; slots holding Null may be passed and are ignored. SemiSpace
	// rewrites each slot to its object's new Ref (see heap.BeginEvacuation);
	// every other plan only reads them. A caller that may run under
	// SemiSpace keeps no Ref outside a root slot or an object field across
	// an allocation.
	Roots(fn func(*heap.Ref))
	// RootCount reports approximately how many root slots exist (for work
	// accounting of the root scan itself).
	RootCount() int
}

// Collector is a complete garbage-collected allocation plan.
type Collector interface {
	// Name returns the plan name as the paper uses it (e.g. "SemiSpace").
	Name() string

	// Alloc allocates an object, collecting as needed. It returns
	// ErrOutOfMemory when even a full collection cannot make room.
	Alloc(size uint32, nrefs int) (heap.Ref, error)

	// WriteBarrier must be called by the VM for every reference store
	// src.f = dst. Non-generational plans treat it as a no-op; generational
	// plans maintain their remembered set. It returns the number of extra
	// instructions the barrier cost the mutator (the write-barrier overhead
	// the paper cites as undermining GenCopy's locality advantage).
	WriteBarrier(src, dst heap.Ref) int64

	// Collect forces a full collection.
	Collect(reason string)

	// MutatorLocality reports a [0,1] locality-quality factor for mutator
	// heap accesses under the current heap layout: copying plans compact
	// the live set (high), free-list plans fragment over time (lower).
	MutatorLocality() float64
	// Stats reports cumulative collection statistics.
	Stats() Stats
}

// Stats accumulates collector activity over a run.
type Stats struct {
	Collections        int64
	NurseryCollections int64
	FullCollections    int64
	Increments         int64

	ObjectsScanned int64
	ObjectsCopied  int64
	ObjectsFreed   int64
	BytesCopied    units.ByteSize
	BytesFreed     units.ByteSize

	BarrierStores  int64 // reference stores that paid a barrier check
	RemsetRecorded int64 // stores that actually recorded a remset entry

	TotalWork Work
}

func (s *Stats) note(r CollectionReport) {
	s.Collections++
	switch r.Kind {
	case NurseryCollection:
		s.NurseryCollections++
	case FullCollection:
		s.FullCollections++
	case IncrementStep:
		s.Increments++
		s.Collections-- // increments are steps, not whole collections
	}
	s.ObjectsScanned += r.ObjectsScanned
	s.ObjectsCopied += r.ObjectsCopied
	s.ObjectsFreed += r.ObjectsFreed
	s.BytesCopied += r.BytesCopied
	s.BytesFreed += r.BytesFreed
	s.TotalWork.Add(r.Work)
}

// New constructs a collector by plan name with the given total heap size.
// Valid names: SemiSpace, MarkSweep, GenCopy, GenMS, KaffeMS.
func New(name string, heapSize units.ByteSize, env Env) (Collector, error) {
	if err := checkEnv(heapSize, env); err != nil {
		return nil, err
	}
	switch name {
	case "SemiSpace":
		return NewSemiSpace(heapSize, env), nil
	case "MarkSweep":
		return NewMarkSweep(heapSize, env), nil
	case "GenCopy":
		return NewGenCopy(heapSize, env), nil
	case "GenMS":
		return NewGenMS(heapSize, env), nil
	case "KaffeMS":
		return NewKaffeMS(heapSize, env), nil
	default:
		return nil, fmt.Errorf("gc: unknown collector %q", name)
	}
}

// checkEnv rejects an environment or heap size no plan can run with.
func checkEnv(heapSize units.ByteSize, env Env) error {
	if env.Heap == nil {
		return fmt.Errorf("gc: env.Heap is nil")
	}
	if env.Roots == nil {
		return fmt.Errorf("gc: env.Roots is nil")
	}
	if heapSize < units.MB {
		return fmt.Errorf("gc: heap size %v too small", heapSize)
	}
	return nil
}

// PlanNames lists the Jikes RVM plans in the order the paper presents them
// (Figure 3).
func PlanNames() []string { return []string{"SemiSpace", "MarkSweep", "GenCopy", "GenMS"} }
