package heap

import (
	"testing"
	"testing/quick"

	"jvmpower/internal/units"
)

func newFLS(size units.ByteSize) *FreeListSpace {
	lay := NewLayout()
	return NewFreeListSpace("t", lay.Take(size))
}

func TestFreeListAllocFree(t *testing.T) {
	s := newFLS(1 * units.MB)
	a1, ok := s.Alloc(60) // 64 B class
	if !ok {
		t.Fatal("alloc failed")
	}
	if s.Used() != 64 {
		t.Fatalf("used = %v, want 64 (cell-rounded)", s.Used())
	}
	a2, ok := s.Alloc(60)
	if !ok || a2 == a1 {
		t.Fatalf("second alloc %#x ok=%v", a2, ok)
	}
	s.FreeCell(a1, 60)
	if s.Used() != 64 {
		t.Fatalf("used after free = %v", s.Used())
	}
	// Freed cell is reused before new carving.
	a3, ok := s.Alloc(60)
	if !ok || a3 != a1 {
		t.Fatalf("freed cell not reused: got %#x want %#x", a3, a1)
	}
}

func TestFreeListCellSizes(t *testing.T) {
	if CellSize(1) != 16 || CellSize(16) != 16 || CellSize(17) != 32 {
		t.Fatal("small cell rounding wrong")
	}
	if CellSize(32768) != 32768 {
		t.Fatalf("32KB class: %v", CellSize(32768))
	}
	if CellSize(40000) != units.ByteSize(65536) {
		t.Fatalf("oversized rounds to blocks: %v", CellSize(40000))
	}
}

func TestFreeListBlockRecycling(t *testing.T) {
	s := newFLS(256 * units.KB)
	// Fill one block's worth of 1KB cells (32 per 32KB block).
	var addrs []uint64
	for i := 0; i < 32; i++ {
		a, ok := s.Alloc(1000)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		addrs = append(addrs, a)
	}
	footBefore := s.Footprint()
	// Free them all: the block should return to the pool.
	for _, a := range addrs {
		s.FreeCell(a, 1000)
	}
	if s.Footprint() >= footBefore {
		t.Fatalf("footprint did not shrink after whole-block free: %v -> %v", footBefore, s.Footprint())
	}
	// The recycled block can serve a different size class.
	if _, ok := s.Alloc(30000); !ok {
		t.Fatal("recycled block unusable by another class")
	}
}

func TestFreeListClassIsolationSurvives(t *testing.T) {
	// Regression for the metadata-starvation failure: small-object churn
	// must not permanently starve a large class, because fully-freed
	// blocks recycle across classes.
	s := newFLS(128 * units.KB)
	var small []uint64
	for {
		a, ok := s.Alloc(64)
		if !ok {
			break
		}
		small = append(small, a)
	}
	for _, a := range small {
		s.FreeCell(a, 64)
	}
	if _, ok := s.Alloc(2048); !ok {
		t.Fatal("large class starved despite a fully-free heap")
	}
}

func TestFreeListOversized(t *testing.T) {
	s := newFLS(256 * units.KB)
	a, ok := s.Alloc(40000) // two blocks
	if !ok {
		t.Fatal("oversized alloc failed")
	}
	used := s.Used()
	if used != 65536 {
		t.Fatalf("oversized used = %v", used)
	}
	s.FreeCell(a, 40000)
	if s.Used() != 0 {
		t.Fatalf("oversized free left used = %v", s.Used())
	}
	// Its blocks are reusable.
	if _, ok := s.Alloc(30000); !ok {
		t.Fatal("blocks of freed oversized object not reusable")
	}
}

func TestFreeListExhaustion(t *testing.T) {
	s := newFLS(64 * units.KB) // two blocks
	n := 0
	for {
		if _, ok := s.Alloc(1 * 1024); !ok {
			break
		}
		n++
	}
	if n != 64 {
		t.Fatalf("allocated %d 1KB cells from 64KB, want 64", n)
	}
}

// Property: under arbitrary alloc/free sequences the space's accounting
// invariants hold: Used ≥ 0, Used + free cells ≤ carved footprint ≤ extent,
// and all addresses stay in-region and distinct among live cells.
func TestFreeListInvariantsQuick(t *testing.T) {
	type op struct {
		Alloc bool
		Size  uint16
	}
	f := func(ops []op) bool {
		s := newFLS(512 * units.KB)
		type cell struct {
			addr uint64
			size uint32
		}
		var live []cell
		inUse := make(map[uint64]bool)
		for _, o := range ops {
			if o.Alloc || len(live) == 0 {
				size := uint32(o.Size)%4096 + 1
				addr, ok := s.Alloc(size)
				if !ok {
					continue
				}
				if !s.Region().Contains(addr) {
					return false
				}
				if inUse[addr] {
					return false // double allocation of a live address
				}
				inUse[addr] = true
				live = append(live, cell{addr, size})
			} else {
				c := live[len(live)-1]
				live = live[:len(live)-1]
				delete(inUse, c.addr)
				s.FreeCell(c.addr, c.size)
			}
			if s.Used() < 0 {
				return false
			}
			if s.Footprint() > s.Extent() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
