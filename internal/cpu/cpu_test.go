package cpu

import (
	"testing"
	"testing/quick"

	"jvmpower/internal/units"
)

func testConfig() Config {
	l2 := CacheConfig{Size: 1 * units.MB, LineSize: 64, Ways: 8}
	return Config{
		Name: "test", ClockHz: 1e9, BaseCPI: 0.6, IPCMax: 2,
		L1I: CacheConfig{Size: 32 * units.KB, LineSize: 64, Ways: 8},
		L1D: CacheConfig{Size: 32 * units.KB, LineSize: 64, Ways: 8},
		L2:  &l2, L2HitCycles: 10, MemCycles: 200, MissOverlap: 0.3, MLPSupport: 1,
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := testConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := cfg
	bad.ClockHz = 0
	if bad.Validate() == nil {
		t.Error("zero clock accepted")
	}
	bad = cfg
	bad.MissOverlap = 1.0
	if bad.Validate() == nil {
		t.Error("overlap 1.0 accepted")
	}
	bad = cfg
	bad.MLPSupport = 2
	if bad.Validate() == nil {
		t.Error("MLPSupport 2 accepted")
	}
}

func TestSetAssocCacheBasics(t *testing.T) {
	c := NewSetAssocCache(CacheConfig{Size: 1024, LineSize: 64, Ways: 2}) // 8 sets
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0) || !c.Access(63) {
		t.Fatal("same line should hit")
	}
	if c.Access(64) {
		t.Fatal("different line should miss")
	}
	if c.Accesses() != 4 || c.Misses() != 2 {
		t.Fatalf("accesses=%d misses=%d", c.Accesses(), c.Misses())
	}
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate %v", c.MissRate())
	}
}

func TestSetAssocCacheLRU(t *testing.T) {
	// 2-way: fill a set with two lines, touch the first, insert a third;
	// the second (least recent) must be the victim.
	c := NewSetAssocCache(CacheConfig{Size: 1024, LineSize: 64, Ways: 2})
	setStride := uint64(8 * 64) // 8 sets
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Fatal("a evicted despite recency")
	}
	if c.Access(b) {
		t.Fatal("b survived despite LRU")
	}
}

func TestAnalyticMissesMonotonicity(t *testing.T) {
	cfg := testConfig()
	// Higher locality -> fewer L1 misses.
	lo := AnalyticMisses(1e6, 0.3, 8*units.MB, cfg.L1D, cfg.L2)
	hi := AnalyticMisses(1e6, 0.9, 8*units.MB, cfg.L1D, cfg.L2)
	if hi.L1Misses >= lo.L1Misses {
		t.Fatalf("locality did not reduce L1 misses: %d vs %d", hi.L1Misses, lo.L1Misses)
	}
	// Larger working set -> more L2 misses.
	small := AnalyticMisses(1e6, 0.6, 512*units.KB, cfg.L1D, cfg.L2)
	big := AnalyticMisses(1e6, 0.6, 32*units.MB, cfg.L1D, cfg.L2)
	if big.L2Misses <= small.L2Misses {
		t.Fatalf("working set did not increase L2 misses: %d vs %d", big.L2Misses, small.L2Misses)
	}
}

func TestAnalyticMissesBounds(t *testing.T) {
	cfg := testConfig()
	f := func(n int64, locality float64, wsKB int64) bool {
		if n < 0 {
			n = -n
		}
		n %= 1 << 40
		if wsKB < 0 {
			wsKB = -wsKB
		}
		ws := units.ByteSize(wsKB%(1<<20)) * units.KB
		if locality < 0 || locality > 1 {
			locality = 0.5
		}
		p := AnalyticMisses(n, locality, ws, cfg.L1D, cfg.L2)
		return p.L1Misses >= 0 && p.L2Misses >= 0 &&
			p.L1Misses <= n && p.L2Misses <= p.L1Misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyticMissesNoL2(t *testing.T) {
	cfg := testConfig()
	p := AnalyticMisses(1e6, 0.5, 8*units.MB, cfg.L1D, nil)
	if p.L2Misses != p.L1Misses {
		t.Fatal("without an L2, every L1 miss must be a memory access")
	}
}

func TestCoreExecute(t *testing.T) {
	core := NewCore(testConfig())
	r, _ := core.ExecuteBatch(Slice{
		Instructions: 1_000_000,
		Reads:        300_000, Writes: 100_000,
		Locality: 0.9, MLP: 1.4, WorkingSet: 1 * units.MB,
	}, 1)
	if r.Cycles <= 600_000 {
		t.Fatalf("cycles %v below base CPI floor", r.Cycles)
	}
	if r.IPC <= 0 || r.IPC > 2 {
		t.Fatalf("IPC %v out of range", r.IPC)
	}
	if r.Duration <= 0 {
		t.Fatal("non-positive duration")
	}
	c := core.Counters()
	if c.Instructions != 1_000_000 || c.Cycles != int64(r.Cycles) {
		t.Fatalf("counters %+v", c)
	}
	if c.L2Accesses != r.L2Accesses || c.L2Misses != r.L2Misses {
		t.Fatal("counter mismatch with result")
	}
}

func TestMLPReducesStallCycles(t *testing.T) {
	s := Slice{
		Instructions: 1_000_000, Reads: 400_000,
		Locality: 0.4, WorkingSet: 16 * units.MB,
	}
	low := s
	low.MLP = 1
	high := s
	high.MLP = 6
	c1, _ := NewCore(testConfig()).ExecuteBatch(low, 1)
	c2, _ := NewCore(testConfig()).ExecuteBatch(high, 1)
	if c2.Cycles >= c1.Cycles {
		t.Fatalf("MLP 6 not faster than MLP 1: %v vs %v", c2.Cycles, c1.Cycles)
	}
	if c2.L2Misses != c1.L2Misses {
		t.Fatal("MLP changed miss counts; it must only change overlap")
	}
}

func TestExecuteMeasured(t *testing.T) {
	core := NewCore(testConfig())
	r, _ := core.ExecuteMeasuredBatch(100_000, MissProfile{L1Misses: 5_000, L2Misses: 1_000}, 50)
	if r.L1DMisses != 5_000 || r.L2Misses != 1_000 || r.IFetchMisses != 50 {
		t.Fatalf("measured result %+v", r)
	}
	if r.DRAMAccesses != 1_000 {
		t.Fatalf("DRAM accesses %d", r.DRAMAccesses)
	}
}

func TestCountersArithmetic(t *testing.T) {
	a := Counters{Cycles: 10, Instructions: 8, L2Accesses: 4, L2Misses: 2}
	b := Counters{Cycles: 4, Instructions: 4, L2Accesses: 1, L2Misses: 1}
	d := a.Sub(b)
	if d.Cycles != 6 || d.Instructions != 4 {
		t.Fatalf("sub %+v", d)
	}
	s := b.Add(d)
	if s != a {
		t.Fatalf("add/sub not inverse: %+v", s)
	}
	if a.IPC() != 0.8 {
		t.Fatalf("IPC %v", a.IPC())
	}
	if a.L2MissRate() != 0.5 {
		t.Fatalf("L2 miss rate %v", a.L2MissRate())
	}
	var zero Counters
	if zero.IPC() != 0 || zero.L2MissRate() != 0 {
		t.Fatal("zero counters should report 0 rates")
	}
}

func TestCyclesToDuration(t *testing.T) {
	cfg := testConfig() // 1 GHz
	if got := cfg.CyclesToDuration(1e9); got.Seconds() != 1 {
		t.Fatalf("1e9 cycles at 1GHz = %v", got)
	}
}
