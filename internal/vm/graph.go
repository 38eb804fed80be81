package vm

import (
	"jvmpower/internal/heap"
	"jvmpower/internal/units"
)

// Object-graph management for the batch execution engine.
//
// The engine maintains a real object graph with the two lifetime
// populations that drive garbage-collector behavior: a stack-root ring of
// recently allocated objects (the weak generational hypothesis — most
// objects die when the ring wraps past them) and a set of long-lived chains
// anchored in static slots (the mature population, released in chain-sized
// units so mature space turns over and full collections have garbage to
// reclaim). Reference wiring goes through the collector's write barrier,
// so generational plans pay real barrier cost and build real remembered
// sets.

const (
	// ringSlots is the size of the stack-root ring.
	ringSlots = 192
	// numChains is the number of long-lived chains; one static slot each.
	numChains = 16
	// clusterContinueP is the probability a new object references its
	// predecessor, forming cohort clusters ~1/(1-p) objects long.
	clusterContinueP = 0.70
)

// chain tracks one long-lived chain's accounted size.
type chain struct {
	bytes units.ByteSize
}

func (v *VM) initChains() {
	v.chains = make([]chain, numChains)
	v.statics = make([]heap.Ref, numChains)
	v.tables = make([]heap.Ref, numTables)
	v.stackRing = make([]heap.Ref, ringSlots)
	v.ringPos = ringSlots - 1 // the first allocation takes slot 0
}

// vmRoots adapts the VM's root set to gc.RootProvider.
type vmRoots VM

// Roots implements gc.RootProvider: statics (chain anchors), the mutator
// stack ring, class static reference slots, and any interpreter frames.
// These slots are the only places the VM keeps a Ref across an allocation,
// so a moving collector that rewrites them leaves no stale Ref behind.
func (r *vmRoots) Roots(fn func(*heap.Ref)) {
	v := (*VM)(r)
	for i := range v.statics {
		fn(&v.statics[i])
	}
	for i := range v.tables {
		fn(&v.tables[i])
	}
	for i := range v.stackRing {
		fn(&v.stackRing[i])
	}
	for _, slots := range v.classStaticRefs {
		for i := range slots {
			fn(&slots[i])
		}
	}
	if v.interpRoots != nil {
		v.interpRoots(fn)
	}
}

// RootCount implements gc.RootProvider.
func (r *vmRoots) RootCount() int {
	v := (*VM)(r)
	n := len(v.statics) + len(v.tables) + len(v.stackRing)
	for _, slots := range v.classStaticRefs {
		n += len(slots)
	}
	if v.interpRootCount != nil {
		n += v.interpRootCount()
	}
	return n
}

// allocAppObject allocates one application object, wires its reference
// fields into the recent-object graph, roots it in the stack ring, and —
// with probability longLivedP — attaches it to a long-lived chain. The
// returned mutator instruction cost (allocation sequence + write barriers)
// accumulates into the current App slice.
func (v *VM) allocAppObject(size uint32, nrefs int, longLivedP float64, liveTarget units.ByteSize) (heap.Ref, error) {
	r, err := v.alloc.Alloc(size, nrefs)
	if err != nil {
		return heap.Null, err
	}
	v.pendingMutInstr += v.allocInstr

	o := v.heap.Get(r)
	// Wire the first reference field to the previous allocation with the
	// cluster-continuation probability: objects form short chains that die
	// together (the cohort structure of real young objects). Deeper
	// backward wiring would thread reachability through all of allocation
	// history and inflate the live set without bound. The previous
	// allocation is read from the ring's newest slot only now, after Alloc,
	// because a collection inside Alloc may have moved it.
	prev := v.stackRing[v.ringPos]
	if nrefs > 0 && prev != heap.Null && v.rngFloat() < clusterContinueP {
		o.RefsIn(v.heap)[0] = prev
		v.pendingMutInstr += v.alloc.WriteBarrier(r, prev)
	}

	// Root in the stack ring's next slot, which becomes the newest
	// (overwriting the slot retires an older root).
	if v.ringPos++; v.ringPos == ringSlots {
		v.ringPos = 0
	}
	v.stackRing[v.ringPos] = r

	if nrefs > 0 && longLivedP > 0 && v.rngFloat() < longLivedP {
		v.attachLongLived(r, size, liveTarget)
	}
	return r, nil
}

// attachLongLived pushes r onto a chain. When the total long-lived
// population would exceed the live-set target, the chosen chain is dropped
// wholesale (its objects become mature garbage) and r starts it afresh —
// keeping the live set pinned just under LiveTarget while still giving
// full collections mature garbage to reclaim.
func (v *VM) attachLongLived(r heap.Ref, size uint32, liveTarget units.ByteSize) {
	ci := int(v.rng() % numChains)
	c := &v.chains[ci]
	o := v.heap.Get(r)
	refs := o.RefsIn(v.heap)
	link := len(refs) - 1
	// Going long-lived severs the cohort links: the retained object keeps
	// only its chain membership, so the live set is governed by the chain
	// accounting below rather than by cohort closures.
	for i := 0; i < link; i++ {
		refs[i] = heap.Null
	}

	if v.chainTotal+units.ByteSize(size) > liveTarget {
		// Drop this chain: the static anchor moves to r alone.
		v.chainTotal -= c.bytes
		v.statics[ci] = r
		c.bytes = units.ByteSize(size)
		v.chainTotal += c.bytes
		return
	}
	old := v.statics[ci]
	if old != heap.Null {
		// The chain's mutable slot lives at its head only: burying the old
		// head releases whatever young object its slot held (its cache
		// entry is superseded), so pointer mutation pins at most one young
		// cohort per chain.
		oo := v.heap.Get(old)
		if oo.NumRefs() >= 2 {
			oo.RefsIn(v.heap)[0] = heap.Null
		}
		refs[link] = old
		v.pendingMutInstr += v.alloc.WriteBarrier(r, old)
	}
	v.statics[ci] = r
	c.bytes += units.ByteSize(size)
	v.chainTotal += units.ByteSize(size)
}

// numTables is the number of long-lived "table" objects that receive
// pointer mutations.
const numTables = 48

// mutatePointer performs one pointer store into a long-lived table object,
// pointing it at a recent object — the update-old-structure-with-new-data
// pattern (hash tables, caches, _209_db's record index) that creates the
// mature-to-nursery edges generational remembered sets exist for. Tables
// are allocated once and live for the whole run, so they are mature for
// almost all of it, and each table pins at most its current slot contents.
func (v *VM) mutatePointer() {
	ti := int(v.rng() % numTables)
	table := v.tables[ti]
	if table == heap.Null {
		r, err := v.alloc.Alloc(64, 4)
		if err != nil {
			return // heap exhausted; the caller's next alloc will surface it
		}
		v.tables[ti] = r
		table = r
	}
	o := v.heap.Get(table)
	t := v.stackRing[v.rng()%ringSlots]
	if t == heap.Null {
		return
	}
	refs := o.RefsIn(v.heap)
	slot := int(v.rng() % uint64(len(refs)))
	refs[slot] = t
	v.pendingMutInstr += v.alloc.WriteBarrier(table, t)
}
