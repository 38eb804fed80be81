package cpu

import (
	"testing"

	"jvmpower/internal/units"
)

// splitmix is a tiny deterministic PRNG for property tests.
func splitmix(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	x := *s
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// TestAccessRunMatchesAccessLoop drives two identically configured caches
// — one through AccessRun, one through the equivalent per-address Access
// loop — with thousands of pseudo-random strided runs, and asserts every
// run reports the same miss count and both caches end in agreeing
// counters. Runs are applied back-to-back, so any state divergence (tags,
// stamps, LRU clock) surfaces in a later run's misses.
func TestAccessRunMatchesAccessLoop(t *testing.T) {
	configs := []CacheConfig{
		{Size: 32 * units.KB, LineSize: 64, Ways: 8},
		{Size: 16 * units.KB, LineSize: 32, Ways: 4},
		{Size: 24 * units.KB, LineSize: 32, Ways: 2}, // 384 sets: non-power-of-two path
	}
	for _, cfg := range configs {
		bulk := NewSetAssocCache(cfg)
		ref := NewSetAssocCache(cfg)
		seed := uint64(12345)
		for run := 0; run < 3000; run++ {
			base := splitmix(&seed) % (1 << 22)
			stride := int64(splitmix(&seed)%201) - 100 // [-100, 100], incl. 0
			count := int(splitmix(&seed)%300) + 1

			got := bulk.AccessRun(base, stride, count)
			var want int64
			addr := base
			for i := 0; i < count; i++ {
				if !ref.Access(addr) {
					want++
				}
				addr += uint64(stride)
			}
			if got != want {
				t.Fatalf("%+v run %d (base=%#x stride=%d count=%d): AccessRun misses %d, Access loop %d",
					cfg, run, base, stride, count, got, want)
			}
		}
		if bulk.Accesses() != ref.Accesses() || bulk.Misses() != ref.Misses() {
			t.Fatalf("%+v: counters diverged: bulk %d/%d vs loop %d/%d",
				cfg, bulk.Misses(), bulk.Accesses(), ref.Misses(), ref.Accesses())
		}
	}
}

// TestMRUFastPathEquivalence replays a mixed hit-heavy/conflict-heavy
// address sequence and checks hit/miss outcomes against a third cache fed
// the same sequence in a different interleaving of Access and AccessRun
// calls — both decompositions must see identical behavior.
func TestMRUFastPathEquivalence(t *testing.T) {
	cfg := CacheConfig{Size: 4 * units.KB, LineSize: 64, Ways: 2} // 32 sets: conflict-prone
	a := NewSetAssocCache(cfg)
	b := NewSetAssocCache(cfg)
	seed := uint64(99)
	var addrs []uint64
	for i := 0; i < 20000; i++ {
		if splitmix(&seed)%4 == 0 {
			addrs = append(addrs, splitmix(&seed)%(1<<20)) // cold jump
		} else if n := len(addrs); n > 0 {
			addrs = append(addrs, addrs[n-1]+4) // hot walk
		} else {
			addrs = append(addrs, 0)
		}
	}
	for _, addr := range addrs {
		if a.Access(addr) != b.Access(addr) {
			t.Fatalf("divergent hit/miss at %#x", addr)
		}
	}
	if a.Misses() != b.Misses() {
		t.Fatalf("miss counts diverged: %d vs %d", a.Misses(), b.Misses())
	}
}

// TestCycleCarry asserts the HPM cycle register tracks the exact sum of
// retired slice cycles to within one cycle, instead of drifting low by the
// truncated fraction of every slice.
func TestCycleCarry(t *testing.T) {
	c := NewCore(testConfig())
	var trueCycles float64
	for i := 0; i < 50000; i++ {
		r, _ := c.ExecuteBatch(Slice{
			Instructions: 777,
			Reads:        13,
			Writes:       7,
			Locality:     0.9,
			MLP:          1.3,
			WorkingSet:   64 * units.KB,
		}, 1)
		trueCycles += r.Cycles
	}
	drift := trueCycles - float64(c.Counters().Cycles)
	if drift < 0 || drift >= 1 {
		t.Fatalf("cycle counter drifted %v cycles from true %v over 50k slices", drift, trueCycles)
	}
}

// TestExecuteBatchDeltaMatchesCounters checks the returned delta equals
// the observable change in the counter registers.
func TestExecuteBatchDeltaMatchesCounters(t *testing.T) {
	c := NewCore(testConfig())
	s := Slice{Instructions: 100_000, Reads: 20_000, Writes: 5_000,
		Locality: 0.85, MLP: 2, WorkingSet: 2 * units.MB, ICacheMissPerKInst: 0.5}
	before := c.Counters()
	_, delta := c.ExecuteBatch(s, 1.0)
	if got := c.Counters().Sub(before); got != delta {
		t.Fatalf("delta %+v != counter change %+v", delta, got)
	}
	before = c.Counters()
	_, delta = c.ExecuteMeasuredBatch(50_000, MissProfile{L1Misses: 900, L2Misses: 200}, 40)
	if got := c.Counters().Sub(before); got != delta {
		t.Fatalf("measured delta %+v != counter change %+v", delta, got)
	}
}
