package cpu

import (
	"fmt"
	"time"

	"jvmpower/internal/units"
)

// Config describes a processor core and its memory hierarchy.
type Config struct {
	Name    string
	ClockHz float64

	// BaseCPI is the cycles-per-instruction with a perfect memory system.
	BaseCPI float64
	// IPCMax is the sustained peak IPC the power model normalizes against.
	IPCMax float64

	L1I CacheConfig
	L1D CacheConfig
	L2  *CacheConfig // nil: no L2 (PXA255)

	// L2HitCycles is the L1-miss/L2-hit penalty; MemCycles the full
	// miss-to-DRAM penalty.
	L2HitCycles float64
	MemCycles   float64
	// MissOverlap in [0,1) is the fraction of a single miss's latency the
	// core hides through out-of-order execution past the load.
	MissOverlap float64
	// MLPSupport in [0,1] is how fully the core converts an access
	// pattern's miss-level parallelism into overlapped misses: 1 for an
	// aggressive out-of-order core with prefetchers (Pentium M), near 0
	// for a single-issue in-order core (XScale).
	MLPSupport float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ClockHz <= 0 || c.BaseCPI <= 0 || c.IPCMax <= 0 {
		return fmt.Errorf("cpu: config %q has non-positive clock/CPI/IPC", c.Name)
	}
	if err := c.L1I.Validate(); err != nil {
		return err
	}
	if err := c.L1D.Validate(); err != nil {
		return err
	}
	if c.L2 != nil {
		if err := c.L2.Validate(); err != nil {
			return err
		}
	}
	if c.MissOverlap < 0 || c.MissOverlap >= 1 {
		return fmt.Errorf("cpu: config %q MissOverlap %v out of [0,1)", c.Name, c.MissOverlap)
	}
	if c.MLPSupport < 0 || c.MLPSupport > 1 {
		return fmt.Errorf("cpu: config %q MLPSupport %v out of [0,1]", c.Name, c.MLPSupport)
	}
	return nil
}

// CyclesToDuration converts a cycle count to simulated time.
func (c Config) CyclesToDuration(cycles float64) units.Duration {
	return time.Duration(cycles / c.ClockHz * 1e9)
}

// Slice is a batch of execution handed to the core: an instruction count
// plus a characterization of its data and instruction memory behavior.
// Slices are the lingua franca between the VM layer (which knows what ran)
// and the platform layer (which knows what it costs).
type Slice struct {
	Instructions int64
	Reads        int64
	Writes       int64
	// Locality and WorkingSet feed the analytic cache model; see
	// AnalyticMisses. MLP is the access pattern's miss-level parallelism
	// (1 = fully dependent chases; 6+ = streaming).
	Locality   float64
	MLP        float64
	WorkingSet units.ByteSize
	// ICacheMissPerKInst models instruction-fetch behavior: misses per
	// 1000 instructions. Tight loops ≈ 0; the class loader walking cold
	// metadata is the high end (the instruction-fetch stalls the paper
	// observes for Kaffe's loader on the PXA255).
	ICacheMissPerKInst float64
}

// Result reports the cost of executing a slice.
type Result struct {
	Cycles       float64
	Duration     units.Duration
	IPC          float64
	L1DMisses    int64
	L2Accesses   int64
	L2Misses     int64
	DRAMAccesses int64
	IFetchMisses int64
}

// Counters are the hardware performance monitor registers the paper's HPM
// API reads. Values accumulate monotonically, as on real hardware.
type Counters struct {
	Cycles       int64
	Instructions int64
	L1DMisses    int64
	L2Accesses   int64
	L2Misses     int64
	DRAMAccesses int64
	IFetchMisses int64
}

// Sub returns the counter deltas c - o.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Cycles:       c.Cycles - o.Cycles,
		Instructions: c.Instructions - o.Instructions,
		L1DMisses:    c.L1DMisses - o.L1DMisses,
		L2Accesses:   c.L2Accesses - o.L2Accesses,
		L2Misses:     c.L2Misses - o.L2Misses,
		DRAMAccesses: c.DRAMAccesses - o.DRAMAccesses,
		IFetchMisses: c.IFetchMisses - o.IFetchMisses,
	}
}

// Add returns c + o.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Cycles:       c.Cycles + o.Cycles,
		Instructions: c.Instructions + o.Instructions,
		L1DMisses:    c.L1DMisses + o.L1DMisses,
		L2Accesses:   c.L2Accesses + o.L2Accesses,
		L2Misses:     c.L2Misses + o.L2Misses,
		DRAMAccesses: c.DRAMAccesses + o.DRAMAccesses,
		IFetchMisses: c.IFetchMisses + o.IFetchMisses,
	}
}

// IPC reports instructions per cycle over the counted interval.
func (c Counters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.Cycles)
}

// L2MissRate reports L2 misses per L2 access over the counted interval.
func (c Counters) L2MissRate() float64 {
	if c.L2Accesses == 0 {
		return 0
	}
	return float64(c.L2Misses) / float64(c.L2Accesses)
}

// Core executes slices and accumulates HPM counters.
type Core struct {
	cfg      Config
	counters Counters
	// cycleCarry holds the sub-cycle remainder of the last retired slice.
	// The HPM cycle register is integral; without the carry, truncating
	// every slice's fractional cycles drifts the register low by up to one
	// cycle per slice over millions of slices.
	cycleCarry float64
}

// NewCore returns a core for the configuration; an invalid configuration
// panics, since configs are platform constants.
func NewCore(cfg Config) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Core{cfg: cfg}
}

// Counters returns the current HPM register values.
func (c *Core) Counters() Counters { return c.counters }

// ExecuteBatch runs a slice through the analytic model and returns its
// cost and the HPM counter delta it produced (returned directly instead of
// forcing a snapshot-and-subtract of the whole counter struct around the
// call, the pattern core.Meter charges every slice with). Under dynamic
// frequency scaling the clock runs at freqScale of nominal (1 is nominal),
// so memory latency (fixed in nanoseconds) costs proportionally fewer
// cycles and wall time stretches by 1/freqScale — which is why
// memory-bound phases lose little performance at low frequency, the
// effect DVFS governors exploit.
func (c *Core) ExecuteBatch(s Slice, freqScale float64) (Result, Counters) {
	accesses := s.Reads + s.Writes
	prof := AnalyticMisses(accesses, s.Locality, s.WorkingSet, c.cfg.L1D, c.cfg.L2)
	ifm := int64(float64(s.Instructions) / 1000 * s.ICacheMissPerKInst)
	return c.retireScaled(s.Instructions, prof, ifm, s.MLP, freqScale)
}

// ExecuteMeasuredBatch runs a slice whose cache behavior was determined by
// the set-associative simulator (interpreter mode): the caller supplies
// actual miss counts instead of a locality characterization. It returns
// the cost and the HPM counter delta.
func (c *Core) ExecuteMeasuredBatch(instructions int64, prof MissProfile, ifetchMisses int64) (Result, Counters) {
	// Interpreter access streams are dependent loads; MLP near 1.
	return c.retireScaled(instructions, prof, ifetchMisses, 1.2, 1.0)
}

func (c *Core) retireScaled(instructions int64, prof MissProfile, ifm int64, mlp, freqScale float64) (Result, Counters) {
	if mlp < 1 {
		mlp = 1
	}
	if freqScale <= 0 || freqScale > 1 {
		freqScale = 1
	}
	// Memory latency is fixed in wall time, so its cycle cost scales with
	// the clock; the effective per-miss penalty also shrinks by the
	// overlap the core extracts from the pattern's miss-level parallelism.
	memPenalty := c.cfg.MemCycles * freqScale / (1 + c.cfg.MLPSupport*(mlp-1))
	l2acc, l2m := int64(0), int64(0)
	var missCycles float64
	if c.cfg.L2 != nil {
		l2acc = prof.L1Misses
		l2m = prof.L2Misses
		l2hits := l2acc - l2m
		missCycles = float64(l2hits)*c.cfg.L2HitCycles + float64(l2m)*memPenalty
	} else {
		// No L2: every L1 miss goes to memory.
		l2m = prof.L1Misses
		missCycles = float64(prof.L1Misses) * memPenalty
	}
	// Instruction fetch misses stall the front end; charge them like L2
	// hits when an L2 exists, memory otherwise.
	if c.cfg.L2 != nil {
		missCycles += float64(ifm) * c.cfg.L2HitCycles
	} else {
		missCycles += float64(ifm) * c.cfg.MemCycles
	}
	cycles := float64(instructions)*c.cfg.BaseCPI + missCycles*(1-c.cfg.MissOverlap)
	if cycles < 1 {
		cycles = 1
	}

	r := Result{
		Cycles:       cycles,
		Duration:     c.cfg.CyclesToDuration(cycles / freqScale),
		IPC:          float64(instructions) / cycles,
		L1DMisses:    prof.L1Misses,
		L2Accesses:   l2acc,
		L2Misses:     l2m,
		DRAMAccesses: l2m,
		IFetchMisses: ifm,
	}
	// Retire whole cycles into the HPM register, carrying the fractional
	// remainder into the next slice so the register tracks true elapsed
	// cycles instead of drifting low by the truncated fraction per slice.
	carried := cycles + c.cycleCarry
	intCycles := int64(carried)
	c.cycleCarry = carried - float64(intCycles)
	delta := Counters{
		Cycles:       intCycles,
		Instructions: instructions,
		L1DMisses:    prof.L1Misses,
		L2Accesses:   l2acc,
		L2Misses:     l2m,
		DRAMAccesses: l2m,
		IFetchMisses: ifm,
	}
	c.counters = c.counters.Add(delta)
	return r, delta
}
