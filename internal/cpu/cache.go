// Package cpu implements the processor timing model for the two platforms
// the paper measures: a Pentium M-class out-of-order core with an on-die L2
// (the "P6" board) and a PXA255-class single-issue in-order core with no L2
// (the DBPXA255 board).
//
// The model has two granularities, mirroring the two execution engines in
// the VM layer. The set-associative cache simulator services per-access
// simulation when the bytecode interpreter runs real programs; the analytic
// model converts batched access summaries (count, locality, working-set
// size) into per-level miss counts for the experiment harness, where
// simulating every access of a multi-billion-instruction benchmark is not
// feasible. Both produce the same observable quantities: cycles, IPC, and
// the cache-miss counters the paper reads through hardware performance
// monitors.
package cpu

import (
	"fmt"

	"jvmpower/internal/units"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	Size     units.ByteSize
	LineSize int
	Ways     int
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int {
	return int(c.Size) / (c.LineSize * c.Ways)
}

// Validate checks the geometry is usable.
func (c CacheConfig) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cpu: cache config %+v has non-positive field", c)
	}
	if int(c.Size)%(c.LineSize*c.Ways) != 0 {
		return fmt.Errorf("cpu: cache size %v not divisible by line*ways", c.Size)
	}
	return nil
}

// SetAssocCache is a set-associative cache with LRU replacement, used for
// per-access simulation of interpreter-executed programs.
type SetAssocCache struct {
	cfg   CacheConfig
	sets  int
	tags  []uint64 // sets × ways
	stamp []uint64 // LRU timestamps parallel to tags
	mru   []int32  // per-set way index of the most recent hit/fill
	clock uint64

	// Power-of-two geometry fast paths (the platform configs all qualify);
	// a shift of -1 falls back to division for odd geometries.
	lineShift int
	setShift  int
	setMask   uint64
	lastWay   int // tags/stamp index touched by the most recent access

	accesses int64
	misses   int64
}

// log2Exact returns log2(n) if n is a positive power of two, else -1.
func log2Exact(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		return -1
	}
	s := 0
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}

// NewSetAssocCache builds a cache; invalid geometry panics since configs
// are compile-time platform constants.
func NewSetAssocCache(cfg CacheConfig) *SetAssocCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &SetAssocCache{
		cfg:       cfg,
		sets:      sets,
		tags:      make([]uint64, sets*cfg.Ways),
		stamp:     make([]uint64, sets*cfg.Ways),
		mru:       make([]int32, sets),
		lineShift: log2Exact(cfg.LineSize),
		setShift:  log2Exact(sets),
		setMask:   uint64(sets - 1),
	}
	for i := range c.tags {
		c.tags[i] = ^uint64(0) // invalid
	}
	return c
}

// locate decomposes addr into its set base index and tag.
func (c *SetAssocCache) locate(addr uint64) (base int, tag uint64, set int) {
	var line uint64
	if c.lineShift >= 0 {
		line = addr >> uint(c.lineShift)
	} else {
		line = addr / uint64(c.cfg.LineSize)
	}
	if c.setShift >= 0 {
		set = int(line & c.setMask)
		tag = line >> uint(c.setShift)
	} else {
		set = int(line % uint64(c.sets))
		tag = line / uint64(c.sets)
	}
	return set * c.cfg.Ways, tag, set
}

// Access looks up addr, filling on miss, and reports whether it hit.
// A most-recently-used way check runs before the full hit/victim scan:
// hot loops re-touch the same line, so the common case is one compare.
// A tag can occupy at most one way of a set (fills happen only on miss),
// so the short-circuit selects the same way the scan would.
func (c *SetAssocCache) Access(addr uint64) bool {
	c.clock++
	c.accesses++
	base, tag, set := c.locate(addr)

	if i := base + int(c.mru[set]); c.tags[i] == tag {
		c.stamp[i] = c.clock
		c.lastWay = i
		return true
	}
	victim, oldest := base, c.stamp[base]
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.tags[i] == tag {
			c.stamp[i] = c.clock
			c.mru[set] = int32(w)
			c.lastWay = i
			return true
		}
		if c.stamp[i] < oldest {
			victim, oldest = i, c.stamp[i]
		}
	}
	c.misses++
	c.tags[victim] = tag
	c.stamp[victim] = c.clock
	c.mru[set] = int32(victim - base)
	c.lastWay = victim
	return false
}

// TouchLast repeats the most recent access n further times: it advances
// the clock and access counter and restamps the way that access touched.
// Because the line was just installed or re-stamped, those repeats are
// guaranteed hits, so this is bit-identical to n more Access calls with
// the same address — without the lookups.
func (c *SetAssocCache) TouchLast(n int) {
	if n <= 0 {
		return
	}
	c.clock += uint64(n)
	c.accesses += int64(n)
	c.stamp[c.lastWay] = c.clock
}

// LineRun reports how many consecutive accesses starting at addr with the
// given byte stride stay inside addr's cache line: at least 1, at most
// max. Callers use it to split an access run into same-line segments.
func (c *SetAssocCache) LineRun(addr uint64, stride int64, max int) int {
	if max <= 1 || stride == 0 {
		return max
	}
	ls := uint64(c.cfg.LineSize)
	var off uint64
	if c.lineShift >= 0 {
		off = addr & (ls - 1)
	} else {
		off = addr % ls
	}
	var room uint64
	if stride > 0 {
		room = (ls - 1 - off) / uint64(stride)
	} else {
		room = off / uint64(-stride)
	}
	k := int(room) + 1
	if k > max || k <= 0 {
		return max
	}
	return k
}

// AccessRun performs count accesses at base, base+stride, base+2·stride, …
// and reports how many missed. It is bit-identical to the equivalent
// Access loop — same fills, same LRU stamps, same counters — but a run of
// accesses inside one cache line costs a single lookup plus a bulk clock
// advance: after the first touch the line is resident and nothing can
// evict it mid-run, so the remaining touches are hits by construction.
func (c *SetAssocCache) AccessRun(base uint64, stride int64, count int) int64 {
	var misses int64
	addr := base
	for i := 0; i < count; {
		k := c.LineRun(addr, stride, count-i)
		if !c.Access(addr) {
			misses++
		}
		if k > 1 {
			c.TouchLast(k - 1)
		}
		addr += uint64(stride) * uint64(k)
		i += k
	}
	return misses
}

// Accesses reports total lookups.
func (c *SetAssocCache) Accesses() int64 { return c.accesses }

// Misses reports total misses.
func (c *SetAssocCache) Misses() int64 { return c.misses }

// MissRate reports misses/accesses, or 0 before any access.
func (c *SetAssocCache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// MissProfile is the analytic model's output for one batch of accesses:
// how the batch decomposes across the hierarchy.
type MissProfile struct {
	L1Misses int64 // accesses missing L1 (= L2 accesses when an L2 exists)
	L2Misses int64 // accesses missing L2 (= memory accesses); on L2-less
	// platforms every L1 miss is a memory access and L2Misses == L1Misses.
}

// AnalyticMisses estimates cache behavior for a batch of n data accesses
// characterized by locality in [0,1] and a touched working set of ws bytes.
//
// Locality is the fraction of accesses that hit near the core through
// temporal or spatial (same-line) reuse: stack slots, the object currently
// being scanned, the hot end of an array. It is a property of the access
// pattern, so GC tracing carries ≈0.62 (a few same-line accesses per
// object, then a cold jump) while typical application code carries ≈0.9.
//
// Non-local accesses hit a level only if the working set is resident
// there. That makes the working-set size the second axis: GC traces the
// whole live set (multi-megabyte, far exceeding a 1 MB L2 — hence the
// paper's 54-56 % GC L2 miss rate) while an application's hot working set
// is near L2-sized (hence its measured 11 %).
func AnalyticMisses(n int64, locality float64, ws units.ByteSize, l1 CacheConfig, l2 *CacheConfig) MissProfile {
	if n <= 0 {
		return MissProfile{}
	}
	locality = clamp01(locality)
	w := float64(ws)
	if w < 1 {
		w = 1
	}

	resident1 := resident(float64(l1.Size), w)
	hit1 := clamp01(locality + (1-locality)*resident1)
	l1m := int64(float64(n) * (1 - hit1))

	if l2 == nil {
		return MissProfile{L1Misses: l1m, L2Misses: l1m}
	}
	// L1 misses hit L2 if the line is L2-resident; a locality-dependent
	// fraction of the remainder is caught by reuse within L2 (victim lines
	// of the hot set).
	resident2 := resident(float64(l2.Size), w)
	hit2 := clamp01(resident2 + (1-resident2)*0.60*locality)
	l2m := int64(float64(l1m) * (1 - hit2))
	return MissProfile{L1Misses: l1m, L2Misses: l2m}
}

// resident estimates the fraction of a working set's lines found in a
// cache of the given capacity. The soft form C/(C+W/2) avoids the cliff of
// min(1, C/W) at C == W: real LRU caches hold a bit more than half of a
// working set their own size.
func resident(capacity, ws float64) float64 {
	return capacity / (capacity + 0.5*ws)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
