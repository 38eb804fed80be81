package heap

import (
	"fmt"
	"math/bits"

	"jvmpower/internal/units"
)

// A Space is a contiguous region of the simulated address space from which
// an allocator hands out storage. The two concrete policies mirror the two
// allocation disciplines in the paper's collectors: bump-pointer allocation
// (SemiSpace and the generational nursery/copy spaces) and segregated
// free-list allocation (MarkSweep and the GenMS mature space).

// Region is an address range [Base, Limit).
type Region struct {
	Base, Limit uint64
}

// Extent returns the region's size.
func (r Region) Extent() units.ByteSize { return units.ByteSize(r.Limit - r.Base) }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool { return addr >= r.Base && addr < r.Limit }

// BumpSpace allocates by advancing a cursor; freeing is wholesale (Reset).
type BumpSpace struct {
	Name   string
	region Region
	cursor uint64
}

// NewBumpSpace returns a bump space over the region.
func NewBumpSpace(name string, region Region) *BumpSpace {
	return &BumpSpace{Name: name, region: region, cursor: region.Base}
}

// BumpSize returns the bytes an Alloc of size bytes takes: size rounded
// up to 8.
func BumpSize(size uint32) uint64 { return uint64(size+7) &^ 7 }

// Alloc reserves size bytes, returning the base address, or ok=false when
// the space cannot satisfy the request (the caller should collect).
func (s *BumpSpace) Alloc(size uint32) (addr uint64, ok bool) {
	aligned := BumpSize(size)
	if s.cursor+aligned > s.region.Limit {
		return 0, false
	}
	addr = s.cursor
	s.cursor += aligned
	return addr, true
}

// Advance moves the cursor past n bytes, the sum of the BumpSize of
// allocations made without Alloc. The caller has checked that n fits in
// Free.
func (s *BumpSpace) Advance(n uint64) { s.cursor += n }

// Next returns the address the next allocation gets.
func (s *BumpSpace) Next() uint64 { return s.cursor }

// Used reports bytes currently allocated.
func (s *BumpSpace) Used() units.ByteSize { return units.ByteSize(s.cursor - s.region.Base) }

// Free reports bytes remaining.
func (s *BumpSpace) Free() units.ByteSize { return units.ByteSize(s.region.Limit - s.cursor) }

// Extent reports the space's total size.
func (s *BumpSpace) Extent() units.ByteSize { return s.region.Extent() }

// Region returns the space's address range.
func (s *BumpSpace) Region() Region { return s.region }

// Reset discards all allocations (e.g. after evacuating a semi-space).
func (s *BumpSpace) Reset() { s.cursor = s.region.Base }

// FreeListSpace is a block-structured segregated-fit allocator, as used by
// mark-sweep collectors (and by MMTk's mark-sweep space, which the Jikes
// plans build on): the region is carved into 32 KB blocks, each block is
// dedicated to one power-of-two size class from 16 B to 32 KB, and cells
// are handed out from per-class free lists. A block whose cells all die is
// recycled into a block pool any class may claim — which is what keeps
// small-object churn from starving large requests, while fragmentation
// within partially-live blocks remains real and observable.
type FreeListSpace struct {
	Name   string
	region Region
	cursor uint64 // block-granular frontier

	// Per class: a pop stack. Membership lives in cellState (below);
	// recycling a block clears its cells' state bytes, and pop skips stack
	// entries whose state no longer names the popping class.
	stacks [classCount][]uint64

	// cellState holds, per 16-byte cell granule, class+1 when that address
	// heads a free cell of that class, else 0. It replaces per-class
	// map[uint64]struct{} membership sets: pop/push become a byte compare
	// and store, and recycling a block is a contiguous clear instead of one
	// map delete per cell — both hot in the experiment-scale CPU profile.
	cellState []uint8

	blocks     []blockInfo // indexed by (addr-Base)>>blockShift
	freeBlocks []uint64    // recycled block base addresses

	usedBytes     units.ByteSize // bytes in live cells (cell granularity)
	freeCellBytes units.ByteSize // bytes in free cells of assigned blocks
}

type blockInfo struct {
	class int8 // -1: unassigned
	live  int32
}

const (
	minCellShift = 4  // 16 B
	maxCellShift = 15 // 32 KB
	classCount   = maxCellShift - minCellShift + 1

	blockShift = 15 // 32 KB blocks
	blockSize  = 1 << blockShift
)

// NewFreeListSpace returns a free-list space over the region.
func NewFreeListSpace(name string, region Region) *FreeListSpace {
	s := &FreeListSpace{Name: name, region: region, cursor: region.Base}
	s.cellState = make([]uint8, (region.Limit-region.Base)>>minCellShift)
	s.blocks = make([]blockInfo, (region.Limit-region.Base+blockSize-1)>>blockShift)
	for i := range s.blocks {
		s.blocks[i].class = -1
	}
	return s
}

// sizeClass returns the class index for a request, or -1 if too large.
func sizeClass(size uint32) int {
	if size < 16 {
		size = 16
	}
	shift := bits.Len32(size - 1) // ceil(log2(size))
	if shift < minCellShift {
		shift = minCellShift
	}
	if shift > maxCellShift {
		return -1
	}
	return shift - minCellShift
}

// CellSize returns the rounded cell size a request of size bytes occupies.
func CellSize(size uint32) units.ByteSize {
	k := sizeClass(size)
	if k < 0 {
		// Oversized objects take whole blocks.
		return units.ByteSize((size + blockSize - 1) &^ (blockSize - 1))
	}
	return units.ByteSize(16 << k)
}

func (s *FreeListSpace) blockIndex(addr uint64) int {
	return int((addr - s.region.Base) >> blockShift)
}

// pop removes and returns a free cell of class k, skipping entries whose
// block was recycled.
func (s *FreeListSpace) pop(k int) (uint64, bool) {
	st := s.stacks[k]
	state := uint8(k + 1)
	for len(st) > 0 {
		addr := st[len(st)-1]
		st = st[:len(st)-1]
		if i := (addr - s.region.Base) >> minCellShift; s.cellState[i] == state {
			s.cellState[i] = 0
			s.stacks[k] = st
			return addr, true
		}
	}
	s.stacks[k] = st
	return 0, false
}

func (s *FreeListSpace) push(k int, addr uint64) {
	s.stacks[k] = append(s.stacks[k], addr)
	s.cellState[(addr-s.region.Base)>>minCellShift] = uint8(k + 1)
}

// takeBlock claims a block for class k from the pool or the frontier and
// seeds the class's free list with its cells.
func (s *FreeListSpace) takeBlock(k int) bool {
	var base uint64
	switch {
	case len(s.freeBlocks) > 0:
		base = s.freeBlocks[len(s.freeBlocks)-1]
		s.freeBlocks = s.freeBlocks[:len(s.freeBlocks)-1]
	case s.cursor+blockSize <= s.region.Limit:
		base = s.cursor
		s.cursor += blockSize
	default:
		return false
	}
	bi := s.blockIndex(base)
	s.blocks[bi] = blockInfo{class: int8(k), live: 0}
	cell := uint64(16 << k)
	for n := uint64(blockSize) / cell; n > 0; n-- {
		s.push(k, base+(n-1)*cell)
	}
	s.freeCellBytes += blockSize
	return true
}

// Alloc reserves a cell for size bytes, returning its address, or ok=false
// when the class's lists, the block pool, and the frontier are exhausted.
func (s *FreeListSpace) Alloc(size uint32) (addr uint64, ok bool) {
	k := sizeClass(size)
	if k < 0 {
		// Oversized object: take whole contiguous blocks from the frontier.
		sz := uint64(CellSize(size))
		if s.cursor+sz > s.region.Limit {
			return 0, false
		}
		addr = s.cursor
		s.cursor += sz
		for b := addr; b < addr+sz; b += blockSize {
			bi := s.blockIndex(b)
			s.blocks[bi] = blockInfo{class: int8(classCount), live: 1}
		}
		s.usedBytes += units.ByteSize(sz)
		return addr, true
	}
	addr, ok = s.pop(k)
	if !ok {
		if !s.takeBlock(k) {
			return 0, false
		}
		addr, ok = s.pop(k)
		if !ok {
			return 0, false // unreachable: takeBlock seeded the list
		}
	}
	s.blocks[s.blockIndex(addr)].live++
	cell := units.ByteSize(16 << k)
	s.usedBytes += cell
	s.freeCellBytes -= cell
	return addr, true
}

// FreeCell returns a cell of the given request size to its free list. A
// block whose last live cell dies is recycled whole into the block pool.
func (s *FreeListSpace) FreeCell(addr uint64, size uint32) {
	k := sizeClass(size)
	if k < 0 {
		// Oversized object: return its blocks to the pool.
		sz := uint64(CellSize(size))
		for b := addr; b < addr+sz; b += blockSize {
			bi := s.blockIndex(b)
			s.blocks[bi] = blockInfo{class: -1}
			s.freeBlocks = append(s.freeBlocks, b)
		}
		s.usedBytes -= units.ByteSize(sz)
		return
	}
	cell := units.ByteSize(16 << k)
	s.usedBytes -= cell
	bi := s.blockIndex(addr)
	b := &s.blocks[bi]
	b.live--
	if b.live > 0 {
		s.freeCellBytes += cell
		s.push(k, addr)
		return
	}
	// Whole block free: unlink its remaining cells and recycle it.
	base := s.region.Base + uint64(bi)<<blockShift
	start := (base - s.region.Base) >> minCellShift
	clear(s.cellState[start : start+blockSize>>minCellShift])
	s.freeCellBytes -= units.ByteSize(blockSize) - cell
	b.class = -1
	s.freeBlocks = append(s.freeBlocks, base)
}

// Used reports bytes in live cells.
func (s *FreeListSpace) Used() units.ByteSize { return s.usedBytes }

// Footprint reports bytes carved out of the region: the quantity that
// triggers collection when it approaches the extent.
func (s *FreeListSpace) Footprint() units.ByteSize {
	return units.ByteSize(s.cursor-s.region.Base) - units.ByteSize(len(s.freeBlocks))*blockSize
}

// Free reports bytes still available (frontier + block pool + free cells).
func (s *FreeListSpace) Free() units.ByteSize {
	return units.ByteSize(s.region.Limit-s.cursor) +
		units.ByteSize(len(s.freeBlocks))*blockSize +
		s.freeCellBytes
}

// Extent reports the space's total size.
func (s *FreeListSpace) Extent() units.ByteSize { return s.region.Extent() }

// Region returns the space's address range.
func (s *FreeListSpace) Region() Region { return s.region }

// Fragmentation reports the fraction of assigned-block memory that is free
// cells — space held by partially-live blocks that no other size class can
// use. 0 means perfectly compact.
func (s *FreeListSpace) Fragmentation() float64 {
	assigned := float64(s.usedBytes + s.freeCellBytes)
	if assigned <= 0 {
		return 0
	}
	return float64(s.freeCellBytes) / assigned
}

// Layout carves a total heap extent into named regions. It mirrors the
// fixed-heap-size configuration the paper uses (-Xms == -Xmx).
type Layout struct {
	next uint64
}

// NewLayout returns a layout starting at a nonzero base so address 0 stays
// invalid.
func NewLayout() *Layout { return &Layout{next: 0x1000_0000} }

// Take reserves size bytes and returns the region.
func (l *Layout) Take(size units.ByteSize) Region {
	if size <= 0 {
		panic(fmt.Sprintf("heap: layout region size %v", size))
	}
	r := Region{Base: l.next, Limit: l.next + uint64(size)}
	l.next = r.Limit + 0x10_0000 // guard gap between spaces
	return r
}
