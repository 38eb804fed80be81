// Package heap implements the simulated Java heap: an object table holding
// real object metadata (size, simulated address, reference graph) and
// the address-space regions ("spaces") that the garbage collectors in
// internal/gc compose.
//
// Objects are real in every way that matters to the paper's measurements:
// they occupy simulated addresses (so cache locality and fragmentation are
// observable), they hold actual outgoing references (so collectors trace a
// genuine object graph rather than a statistical fiction), and copying
// collectors genuinely relocate them. Only the scalar payload is optional —
// the interpreter materializes field values; the batched mutator engine does
// not, since no measured quantity depends on them.
//
// A Ref is stable until its object dies under every collector except
// SemiSpace, which evacuates the table itself (BeginEvacuation): each
// collection renumbers the survivors in trace order and rewrites every
// root slot and object field that reaches them. Code that may run under
// SemiSpace therefore holds a Ref across an allocation only in a root slot
// or an object field.
package heap

import (
	"math"
	"sync"

	"jvmpower/internal/units"
)

// Ref is a reference to a heap object: an index into the heap's object
// table. The zero Ref is null.
type Ref uint32

// Null is the null reference.
const Null Ref = 0

// Object flag bits used by the collectors.
const (
	FlagMark   uint8 = 1 << 0 // mark-sweep mark bit / tricolor non-white
	FlagRemset uint8 = 1 << 2 // recorded in a generational remembered set
	FlagMature uint8 = 1 << 4 // resides in a mature space

	// flagForwarded marks a from-table object an evacuation has copied;
	// its Addr then holds the copy's Ref.
	flagForwarded uint8 = 1 << 6
)

// inlineRefs is the number of outgoing references stored inside the Object
// itself. Most simulated objects carry only a few reference fields, so the
// inline store removes the per-object []Ref allocation that otherwise
// dominates experiment-scale runs; larger objects spill to the heap's ref
// arena.
const inlineRefs = 4

// Object table chunking: objects live in fixed-size chunks so the table
// never relocates (growth appends a chunk instead of copying the table),
// keeping *Object pointers stable and letting Refs alias inline storage.
const (
	chunkShift = 14 // 16384 objects per chunk
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// refArenaChunk is the ref-arena block size in Refs (64 KB blocks).
const refArenaChunk = 16384

// chunkPool recycles object-table chunks across heaps and across an
// evacuation's from- and to-tables. Chunks are returned dirty: NewObject and
// Forward fully initialize a slot before any field is read, and Get/ForEach
// never touch slots past h.n, so stale contents are unreachable.
// Zeroing fresh chunks is the single largest line in the experiment-scale
// CPU profile; reuse removes it.
//
// This is a plain capped stack rather than a sync.Pool: every Go GC cycle
// flushes a sync.Pool, and a flushed chunk comes back as a fresh large
// allocation the runtime re-zeroes — exactly the cost pooling exists to
// avoid. The cap bounds idle retention; overflow falls to the GC.
var chunkPool struct {
	mu   sync.Mutex
	free [][]Object
}

// maxPooledChunks caps idle chunk retention (at 512 KiB a chunk, at most
// 128 MiB).
const maxPooledChunks = 256

func getChunk() []Object {
	chunkPool.mu.Lock()
	if n := len(chunkPool.free); n > 0 {
		c := chunkPool.free[n-1]
		chunkPool.free[n-1] = nil
		chunkPool.free = chunkPool.free[:n-1]
		chunkPool.mu.Unlock()
		return c
	}
	chunkPool.mu.Unlock()
	return make([]Object, chunkSize)
}

func putChunk(c []Object) {
	chunkPool.mu.Lock()
	if len(chunkPool.free) < maxPooledChunks {
		chunkPool.free = append(chunkPool.free, c)
	}
	chunkPool.mu.Unlock()
}

// Object is one heap object. Objects live in the heap's table; a Ref is an
// index into it.
//
// The struct is deliberately pointer-free and 32 bytes, two to a cache
// line: outgoing references live inline or at an offset into the heap's
// ref arena, reached through RefsIn, and interpreter int payloads live in a
// side table (IntsOf/SetInts). The collectors stream over the table, so
// its footprint is their memory traffic; and pointer-free chunks are
// invisible to Go's garbage collector, which need not scan them.
type Object struct {
	Addr uint64 // simulated address; changes when a copying collector moves it
	Size uint32 // total heap footprint in bytes, header included

	// nrefs is the outgoing-reference count.
	nrefs uint16

	Flags uint8
	Age   uint8 // nursery collections survived

	// inline backs the references of objects with at most inlineRefs of
	// them; an object with more keeps its ref-arena offset in inline[0].
	// Objects must not be copied by value (a copy's inline references are
	// not the table's, and a spilled copy shares the source's arena run);
	// they are only ever reached as *Object via Get. Forward is the one
	// exception: it moves an object to a new table slot, and the source is
	// dead from then on.
	inline [inlineRefs]Ref
}

// NumRefs reports the object's outgoing-reference count.
func (o *Object) NumRefs() int { return int(o.nrefs) }

// RefsIn returns the object's outgoing references as a mutable slice,
// backed by the object's inline store or by h's ref arena. The view is
// invalidated by the next object allocation on h (arena growth may move
// spilled storage), so callers derive it fresh after each Get and never
// hold it across an allocation.
func (o *Object) RefsIn(h *Heap) []Ref {
	if o.nrefs <= inlineRefs {
		return o.inline[:o.nrefs]
	}
	off := uint32(o.inline[0])
	return h.arena[off : off+uint32(o.nrefs)]
}

// Heap owns the object table. Collectors and the VM share one Heap.
type Heap struct {
	chunks [][]Object
	n      int // table length (slot 0 reserved for Null)

	// freeHead chains recycled object-table slots intrusively through the
	// freed slots' Addr fields (dead storage for a freed object), replacing
	// a side []Ref stack whose append traffic showed up in the profile.
	// Push-front/pop-front preserves the stack's LIFO reuse order exactly.
	freeHead Ref

	released bool // table chunks returned to chunkPool; heap is dead

	// from is the table an evacuation copies out of (fromN slots, Null
	// included) and fromInts its payloads; all are zero between
	// evacuations.
	from     [][]Object
	fromN    int
	fromInts map[Ref][]int32

	// arena holds the spilled reference storage of objects with more than
	// inlineRefs references, addressed by the offsets in their inline[0].
	// Offsets are stable for the heap's lifetime (the arena only grows, and
	// an evacuated object keeps its offset); storage is never recycled
	// within a run, bounding spill volume by cumulative allocation.
	arena []Ref

	// ints holds interpreter-materialized int payloads by ref. It is a side
	// table (not an Object field) so the table chunks stay pointer-free; the
	// batch engine never populates it.
	ints map[Ref][]int32

	liveCount int64
	liveBytes units.ByteSize

	// allocCount/allocBytes are cumulative since construction.
	allocCount int64
	allocBytes units.ByteSize
}

// New returns an empty heap.
func New() *Heap {
	h := &Heap{n: 1} // slot 0 reserved for Null
	h.chunks = append(h.chunks, getChunk())
	return h
}

// Release returns the heap's table chunks to the shared chunk pool. Call it
// once, when the run that owns the heap has extracted everything it needs;
// the heap must not be used afterwards. A heap that is never released
// only forgoes chunk reuse.
func (h *Heap) Release() {
	if h.released {
		return
	}
	h.released = true
	for _, c := range h.chunks {
		putChunk(c)
	}
	h.chunks = nil
	h.n = 0
	h.arena = nil
	h.ints = nil
}

// spillRefs reserves a zeroed n-ref run in the arena and returns its offset.
func (h *Heap) spillRefs(n int) uint32 {
	off := len(h.arena)
	need := off + n
	if need > cap(h.arena) {
		newCap := 2 * cap(h.arena)
		if newCap < need {
			newCap = need
		}
		if newCap < refArenaChunk {
			newCap = refArenaChunk
		}
		grown := make([]Ref, off, newCap)
		copy(grown, h.arena)
		h.arena = grown
	}
	h.arena = h.arena[:need]
	clear(h.arena[off:need])
	return uint32(off)
}

// IntsOf returns the interpreter int payload attached to r, or nil.
func (h *Heap) IntsOf(r Ref) []int32 { return h.ints[r] }

// SetInts attaches an interpreter int payload to r.
func (h *Heap) SetInts(r Ref, s []int32) {
	if h.ints == nil {
		h.ints = make(map[Ref][]int32)
	}
	h.ints[r] = s
}

// NewObject creates an object in the table with the given shape and
// simulated address and returns its reference. The caller (a collector's
// allocator) is responsible for having reserved addr..addr+size in a space.
// More than math.MaxUint16 references panics: the count is 16 bits, and
// classfile.Program.Validate bounds a class's fields at that, so reaching
// this is a VM bug.
func (h *Heap) NewObject(size uint32, nrefs int, addr uint64) Ref {
	if uint(nrefs) > math.MaxUint16 {
		panic("heap: object reference count out of range")
	}
	var r Ref
	if h.freeHead != Null {
		r = h.freeHead
		h.freeHead = Ref(h.chunks[r>>chunkShift][r&chunkMask].Addr)
	} else {
		if h.n>>chunkShift == len(h.chunks) {
			h.chunks = append(h.chunks, getChunk())
		}
		r = Ref(h.n)
		h.n++
	}
	o := &h.chunks[r>>chunkShift][r&chunkMask]
	*o = Object{Size: size, Addr: addr, nrefs: uint16(nrefs)}
	if nrefs > inlineRefs {
		o.inline[0] = Ref(h.spillRefs(nrefs))
	}
	h.liveCount++
	h.liveBytes += units.ByteSize(size)
	h.allocCount++
	h.allocBytes += units.ByteSize(size)
	return r
}

// Get returns the object for r. Dereferencing Null or an out-of-table ref
// panics: the interpreter raises its own NullPointerException before
// calling Get, so reaching this is a VM bug. The check is a single
// unsigned compare (r == Null wraps to MaxUint64; r >= n iff r-1 >= n-1,
// n always >= 1) and the panic takes a constant string, keeping Get cheap
// enough to inline into the collectors' and the VM's hot loops.
func (h *Heap) Get(r Ref) *Object {
	if uint64(r)-1 >= uint64(h.n)-1 {
		panic("heap: invalid dereference (null or out-of-table ref)")
	}
	return &h.chunks[r>>chunkShift][r&chunkMask]
}

// Free releases an object's table slot. Only collectors call this, for
// objects they have determined unreachable. Only the fields a freed slot is
// ever inspected through (Size == 0 marks it free) and the GC-visible
// pointers are cleared; NewObject fully reinitializes the slot on reuse.
func (h *Heap) Free(r Ref) {
	o := h.Get(r)
	h.liveCount--
	h.liveBytes -= units.ByteSize(o.Size)
	o.Size = 0
	o.Flags = 0
	o.nrefs = 0
	if h.ints != nil {
		delete(h.ints, r)
	}
	o.Addr = uint64(h.freeHead) // free-list link; dead storage while freed
	h.freeHead = r
}

// BeginEvacuation starts a copying collection of the whole table: the
// current table becomes the from-table and the heap continues with an
// empty one, which Forward fills with the survivors in the order the
// collector's trace reaches them; LiveCount/LiveBytes count only those.
// The collector must rewrite every root slot and object field through
// Forward, then call EndEvacuation. Dead objects, and their int payloads,
// are dropped with the from-table without being touched.
func (h *Heap) BeginEvacuation() {
	h.from, h.fromN, h.fromInts = h.chunks, h.n, h.ints
	h.chunks = [][]Object{getChunk()}
	h.n = 1
	h.freeHead = Null // free slots belong to the from-table
	h.ints = nil
	h.liveCount, h.liveBytes = 0, 0
}

// Forward returns the new-table Ref of the from-table object r, copying
// the object and its int payload on the first call for r; copied reports
// whether this call made the copy. The copy's references name from-table
// objects until the collector forwards them too. r must be a non-Null
// from-table Ref.
func (h *Heap) Forward(r Ref) (nr Ref, copied bool) {
	if uint64(r)-1 >= uint64(h.fromN)-1 {
		panic("heap: forwarding a null or out-of-table ref")
	}
	o := &h.from[r>>chunkShift][r&chunkMask]
	if o.Flags&flagForwarded != 0 {
		return Ref(o.Addr), false
	}
	if h.n>>chunkShift == len(h.chunks) {
		h.chunks = append(h.chunks, getChunk())
	}
	nr = Ref(h.n)
	h.n++
	h.chunks[nr>>chunkShift][nr&chunkMask] = *o
	h.liveCount++
	h.liveBytes += units.ByteSize(o.Size)
	if h.fromInts != nil { // only the interpreter attaches payloads
		if s, ok := h.fromInts[r]; ok {
			h.SetInts(nr, s)
		}
	}
	o.Flags |= flagForwarded
	o.Addr = uint64(nr) // forwarding index; the source is dead storage now
	return nr, true
}

// EndEvacuation finishes an evacuation: the from-table's chunks go back
// to the chunk pool.
func (h *Heap) EndEvacuation() {
	for _, c := range h.from {
		putChunk(c)
	}
	h.from, h.fromN, h.fromInts = nil, 0, nil
}

// LiveCount reports the number of live (table-resident) objects.
func (h *Heap) LiveCount() int64 { return h.liveCount }

// LiveBytes reports the summed size of live objects.
func (h *Heap) LiveBytes() units.ByteSize { return h.liveBytes }

// AllocCount reports cumulative allocations since construction.
func (h *Heap) AllocCount() int64 { return h.allocCount }

// AllocBytes reports cumulative allocated bytes since construction.
func (h *Heap) AllocBytes() units.ByteSize { return h.allocBytes }

// TableLen reports the current object-table length (diagnostics/tests).
func (h *Heap) TableLen() int { return h.n }

// SetAddr relocates an object to a new simulated address (copying GC).
func (h *Heap) SetAddr(r Ref, addr uint64) { h.Get(r).Addr = addr }

// ObjectHeaderBytes is the simulated per-object header size.
const ObjectHeaderBytes = 8

// ArraySize returns the heap footprint of an array of n elements of
// elemSize bytes.
func ArraySize(n int, elemSize int) uint32 {
	return uint32(ObjectHeaderBytes + 4 + n*elemSize) // header + length word
}
