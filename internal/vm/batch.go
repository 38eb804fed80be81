package vm

import (
	"fmt"

	"jvmpower/internal/classfile"
	"jvmpower/internal/component"
	"jvmpower/internal/cpu"
	"jvmpower/internal/jit"
)

// Batch execution engine: runs a BehaviorProfile at experiment scale.
//
// Execution proceeds in segments of ~100k bytecodes (≈1 ms on the P6, so
// the 40 µs DAQ and 1 ms HPM sampling see realistic component interleaving).
// Each segment attributes bytecode volume to methods (driving first-
// invocation class loading and compilation, and AOS hotness), performs the
// segment's share of allocation and pointer mutation against the real
// collector, and emits one App slice whose instruction expansion reflects
// the current mix of compilation tiers. Garbage collections triggered by
// the segment's allocations emit GC slices inline, at the allocation sites
// that caused them.
const (
	segmentBytecodes = 100_000
	// mutCostScale deflates per-allocation and per-barrier mutator costs
	// to match the benchmarks' time compression: execution volume is
	// scaled down ~5x while allocation volume is preserved (so GC pressure
	// stays realistic), so per-object mutator sequences must scale down by
	// the same factor to keep the allocation:execution energy ratio.
	mutCostScale = 0.3
	// controllerPeriodSegments paces the Jikes controller thread's ticks.
	controllerPeriodSegments = 12
	// compileDrainPerSegment bounds optimizing compilations per quantum
	// (the opt compiler thread's interleaving grain).
	compileDrainPerSegment = 2
)

// RunProfile executes the profile to completion.
func (v *VM) RunProfile(p BehaviorProfile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	nSeg := p.TotalBytecodes / segmentBytecodes
	if nSeg < 1 {
		nSeg = 1
	}
	allocPerSeg := int64(p.AllocBytes) / nSeg

	methods := v.prog.Methods
	nM := len(methods)
	if nM == 0 {
		return fmt.Errorf("vm: program %q has no methods", v.prog.Name)
	}

	// Hot-method selection: evenly strided through the method table so hot
	// methods span classes (and, for Kaffe, system classes too).
	hotCount := int(p.HotMethodFrac * float64(nM))
	if hotCount < 1 {
		hotCount = 1
	}
	if hotCount > nM {
		hotCount = nM
	}
	hot := make([]classfile.MethodID, 0, hotCount)
	stride := nM / hotCount
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < nM && len(hot) < hotCount; i += stride {
		hot = append(hot, classfile.MethodID(i))
	}

	// First-invocation schedule: startup burst, then a ramp over the first
	// 40% of segments.
	if err := v.firstInvoke(v.prog.Entry); err != nil {
		return err
	}
	invokeIdx := 0
	invokeNext := func(k int) error {
		for ; k > 0 && invokeIdx < nM; invokeIdx++ {
			if v.invoked[invokeIdx] {
				continue
			}
			if err := v.firstInvoke(classfile.MethodID(invokeIdx)); err != nil {
				return err
			}
			k--
		}
		return nil
	}
	startup := int(p.StartupMethodFrac * float64(nM))
	if err := invokeNext(startup); err != nil {
		return err
	}
	rampSegs := nSeg * 4 / 10
	if rampSegs < 1 {
		rampSegs = 1
	}
	rampPerSeg := float64(nM-startup) / float64(rampSegs)
	var rampAcc float64

	hotBC := int64(float64(segmentBytecodes) * p.HotBytecodeShare)
	coldBC := segmentBytecodes - hotBC
	perHot := hotBC / int64(len(hot))
	var mutAcc float64

	for seg := int64(0); seg < nSeg; seg++ {
		if v.cancelRequested() {
			return ErrCancelled
		}
		if seg > 0 && seg <= int64(rampSegs) {
			rampAcc += rampPerSeg
			n := int(rampAcc)
			rampAcc -= float64(n)
			if err := invokeNext(n); err != nil {
				return err
			}
		}

		// Attribute hot execution and blend tiers.
		var instr, accW, icacheW float64
		for _, m := range hot {
			if !v.invoked[m] {
				if err := v.firstInvoke(m); err != nil {
					return err
				}
			}
			v.aos.NoteExecution(m, perHot)
			ep := jit.ProfileFor(v.tierOf(m))
			instr += float64(perHot) * ep.InstrPerBytecode
			accW += float64(perHot) * ep.AccessFactor
			icacheW += float64(perHot) * ep.ICacheMissPerKInst
		}
		// Cold execution runs at the first-tier profile.
		coldTier := jit.TierBaseline
		if v.cfg.Flavor == Kaffe {
			coldTier = jit.TierKaffeJIT
		}
		cp := jit.ProfileFor(coldTier)
		instr += float64(coldBC) * cp.InstrPerBytecode
		accW += float64(coldBC) * cp.AccessFactor
		icacheW += float64(coldBC) * cp.ICacheMissPerKInst
		accFactor := accW / float64(segmentBytecodes)
		icachePerK := icacheW / float64(segmentBytecodes)

		// Allocation (may trigger GC slices inline) and pointer mutation.
		if err := v.allocSegment(allocPerSeg, &p); err != nil {
			return fmt.Errorf("vm: %s segment %d: %w", p.Name, seg, err)
		}
		mutAcc += p.PtrStoresPerKBC * float64(segmentBytecodes) / 1000
		for ; mutAcc >= 1; mutAcc-- {
			v.mutatePointer()
		}

		// Application slice for the segment.
		mod := v.phaseModulation(seg, &p)
		burst := v.inBurst(seg, &p)
		appInstr := int64(instr) + int64(float64(v.pendingMutInstr)*mutCostScale)
		v.pendingMutInstr = 0
		// Locality rises and access density falls together in compute
		// phases, producing the IPC (and hence power) swings whose maxima
		// the peak-power measurement records. A short burst window at the
		// top of each phase models the register-dense inner loops that set
		// the application's power peaks.
		accessScale := 1 - 1.5*mod
		if burst {
			accessScale *= 0.5
		}
		accesses := float64(appInstr) * p.AccessesPerInstr * accFactor * accessScale
		if accesses < 0 {
			accesses = 0
		}
		mlp := p.MLP
		if mlp == 0 {
			mlp = 1.4
		}
		// One per lane: each lane's collector sets its locality.
		for i, l := range v.lanes {
			if v.LaneLeft(i) != nil {
				continue
			}
			locality := p.Locality * (l.col.MutatorLocality() / 0.80)
			locality += mod
			if locality < 0 {
				locality = 0
			}
			if locality > 1 {
				locality = 1
			}
			if burst {
				locality += 0.08
				if locality > 0.98 {
					locality = 0.98
				}
			}
			l.exec.Execute(component.App, cpu.Slice{
				Instructions:       appInstr,
				Reads:              int64(accesses * 0.65),
				Writes:             int64(accesses * 0.35),
				Locality:           locality,
				MLP:                mlp,
				WorkingSet:         p.HotWorkingSet,
				ICacheMissPerKInst: icachePerK,
			})
		}

		// VM service threads.
		if v.cfg.Flavor == Jikes {
			if seg%controllerPeriodSegments == 0 {
				v.controllerTick()
			}
			v.drainCompileQueue(compileDrainPerSegment)
		}
	}
	// Any still-queued recompilations would have run during the tail of a
	// real execution; drain them so compile accounting is complete.
	if v.cfg.Flavor == Jikes {
		v.drainCompileQueue(v.aos.PendingCompiles())
	}
	return nil
}

// allocSegment performs one segment's allocation against the collector.
func (v *VM) allocSegment(bytes int64, p *BehaviorProfile) error {
	avg := int64(p.AvgObjectBytes)
	maxRefs := uint64(int(2*p.RefsPerObject) + 1)
	for done := int64(0); done < bytes; {
		size := uint32(avg/2 + int64(v.rng()%uint64(avg))) // [avg/2, 1.5avg)
		nrefs := int(v.rng() % maxRefs)
		if _, err := v.allocAppObject(size, nrefs, p.LongLivedFrac, p.LiveTarget); err != nil {
			return err
		}
		done += int64(size)
	}
	return nil
}

// tierOf returns the tier a method currently executes at.
func (v *VM) tierOf(m classfile.MethodID) jit.Tier {
	t := v.aos.Tier(m)
	if t == jit.TierNone {
		// Not yet invoked this run; charge at the first-tier profile.
		if v.cfg.Flavor == Kaffe {
			return jit.TierKaffeJIT
		}
		return jit.TierBaseline
	}
	return t
}

// inBurst reports whether a segment falls in the compute-burst window at
// the start of each power phase.
func (v *VM) inBurst(seg int64, p *BehaviorProfile) bool {
	if p.PowerPhasePeriod < 16 {
		return false
	}
	return seg%int64(p.PowerPhasePeriod) < int64(p.PowerPhasePeriod)/16
}

// phaseModulation produces the deterministic intra-run locality variation
// that gives the application realistic power texture (and hence a peak
// above its average, as Figure 8 measures).
func (v *VM) phaseModulation(seg int64, p *BehaviorProfile) float64 {
	if p.PowerPhaseAmp == 0 || p.PowerPhasePeriod <= 1 {
		return 0
	}
	pos := float64(seg%int64(p.PowerPhasePeriod)) / float64(p.PowerPhasePeriod)
	// Triangle wave in [-1, 1].
	tri := 4*pos - 1
	if pos > 0.5 {
		tri = 3 - 4*pos
	}
	return p.PowerPhaseAmp * tri * 0.5
}
