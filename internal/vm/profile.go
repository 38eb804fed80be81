package vm

import (
	"fmt"
	"math"

	"jvmpower/internal/units"
)

// BehaviorProfile characterizes a benchmark for the batch execution engine:
// the aggregate behaviors that the measured components' costs depend on.
// internal/workloads derives one per benchmark analog, calibrated to the
// published characteristics of its namesake (allocation-heavy _213_javac,
// pointer-chasing _209_db, compute-bound _222_mpegaudio, class-heavy fop,
// and so on).
type BehaviorProfile struct {
	Name string

	// TotalBytecodes is the application's bytecode execution volume.
	TotalBytecodes int64
	// AllocBytes is the total allocation volume over the run.
	AllocBytes units.ByteSize
	// AvgObjectBytes is the mean object size (sizes vary ±50% around it).
	AvgObjectBytes int
	// RefsPerObject is the mean reference-field count (sampled 0..2×mean).
	RefsPerObject float64
	// LongLivedFrac is the probability a new object joins the long-lived
	// population.
	LongLivedFrac float64
	// LiveTarget is the steady-state live-set size the long-lived chains
	// are held to.
	LiveTarget units.ByteSize
	// PtrStoresPerKBC is the rate of pointer stores into old objects per
	// 1000 bytecodes (write-barrier and remembered-set traffic).
	PtrStoresPerKBC float64

	// AccessesPerInstr is the data-memory accesses per native instruction
	// (typical code runs 0.3-0.45).
	AccessesPerInstr float64
	// MLP is the application's miss-level parallelism (default 1.4; lower
	// for dependent pointer chases like _209_db, higher for array codes).
	MLP float64
	// Locality is the application's base data-access locality (see
	// cpu.AnalyticMisses); the collector's layout quality scales it.
	Locality float64
	// HotWorkingSet is the application's hot data footprint for the cache
	// model.
	HotWorkingSet units.ByteSize

	// HotMethodFrac is the fraction of methods that become hot;
	// HotBytecodeShare the share of execution volume they receive.
	HotMethodFrac    float64
	HotBytecodeShare float64
	// StartupMethodFrac is the fraction of methods first invoked in the
	// startup burst; the rest ramp in over the first 40% of the run.
	StartupMethodFrac float64

	// PowerPhaseAmp and PowerPhasePeriod modulate locality and issue
	// density across segments, giving the application the intra-run power
	// variation that peak-power measurements see.
	PowerPhaseAmp    float64
	PowerPhasePeriod int
}

// Validate checks the profile is runnable.
func (p *BehaviorProfile) Validate() error {
	if p.TotalBytecodes <= 0 {
		return fmt.Errorf("vm: profile %q: TotalBytecodes must be positive", p.Name)
	}
	if p.AllocBytes < 0 || p.AvgObjectBytes <= 0 {
		return fmt.Errorf("vm: profile %q: bad allocation parameters", p.Name)
	}
	// An object draws 0..int(2×RefsPerObject) references, and a heap object
	// holds at most math.MaxUint16 (heap.NewObject).
	if !(p.RefsPerObject >= 0 && 2*p.RefsPerObject < math.MaxUint16+1) {
		return fmt.Errorf("vm: profile %q: RefsPerObject %v out of [0,%d)", p.Name, p.RefsPerObject, (math.MaxUint16+1)/2)
	}
	if p.LongLivedFrac < 0 || p.LongLivedFrac > 1 {
		return fmt.Errorf("vm: profile %q: LongLivedFrac %v out of [0,1]", p.Name, p.LongLivedFrac)
	}
	if p.Locality < 0 || p.Locality > 1 {
		return fmt.Errorf("vm: profile %q: Locality %v out of [0,1]", p.Name, p.Locality)
	}
	if p.HotBytecodeShare < 0 || p.HotBytecodeShare > 1 {
		return fmt.Errorf("vm: profile %q: HotBytecodeShare %v out of [0,1]", p.Name, p.HotBytecodeShare)
	}
	if p.AccessesPerInstr <= 0 {
		return fmt.Errorf("vm: profile %q: AccessesPerInstr must be positive", p.Name)
	}
	return nil
}

// Scale returns a copy with execution and allocation volumes scaled by k —
// the s100→s10 input-size reduction used for the embedded platform
// (Section VI-E), and the fast configurations used by unit tests.
func (p BehaviorProfile) Scale(k float64) BehaviorProfile {
	q := p
	q.TotalBytecodes = int64(float64(p.TotalBytecodes) * k)
	q.AllocBytes = units.ByteSize(float64(p.AllocBytes) * k)
	// The live set shrinks with input size, though less than linearly.
	live := float64(p.LiveTarget) * (0.3 + 0.7*k)
	q.LiveTarget = units.ByteSize(live)
	if q.TotalBytecodes < 1 {
		q.TotalBytecodes = 1
	}
	return q
}
