package core

import (
	"context"
	"fmt"
	"slices"

	"jvmpower/internal/analysis"
	"jvmpower/internal/classfile"
	"jvmpower/internal/component"
	"jvmpower/internal/cpu"
	"jvmpower/internal/daq"
	"jvmpower/internal/faultinject"
	"jvmpower/internal/gc"
	"jvmpower/internal/metrics"
	"jvmpower/internal/platform"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
)

// RunConfig describes one complete characterization point: a benchmark on
// a VM configuration on a platform — the unit the paper's figures sweep.
type RunConfig struct {
	Platform platform.Platform
	VM       vm.Config
	// Program is the benchmark's class files; Profile its execution
	// behavior for the batch engine.
	Program *classfile.Program
	Profile vm.BehaviorProfile
	// FanOn sets the cooling state (Figure 1 contrasts fan failure).
	FanOn bool
	// IdealChannels bypasses measurement-chain noise.
	IdealChannels bool
	// DVFSPolicy optionally requests per-component clock scaling (see
	// MeterOptions.DVFSPolicy).
	DVFSPolicy func(component.ID) float64
	// TraceSink, when set, additionally receives every DAQ sample (e.g. a
	// daq.TraceRecorder for export via internal/trace).
	TraceSink daq.Sink
	// Metrics, when non-nil, instruments the run: "core.characterize.runs"
	// (one per lane that joins a VM run, and one more for a lane of a sweep
	// characterized again on its own) plus the DAQ's acquisition counters.
	// Instrumentation never touches figure output — runs are
	// byte-identical with it on or off.
	Metrics *metrics.Registry
	// Faults, when non-nil and enabled, injects measurement-chain failure
	// modes into the run (see MeterOptions.Faults). Nil or disabled keeps
	// every layer on its exact uninstrumented path.
	Faults *faultinject.Plan
	// Ctx, when non-nil, aborts the run at the first VM segment boundary
	// at which it is done or past its deadline (see vm.VM.SetCancel):
	// Characterize returns an error wrapping vm.ErrCancelled and the
	// partial measurement is discarded. This is how a dispatcher stops an
	// attempt that has outlived its budget or its run, instead of letting
	// the simulation run to completion. A sweep's run uses its first
	// lane's.
	Ctx context.Context
}

// Outcome is what a run leaves once its meter is gone: the
// decomposition, the VM's collector statistics and loaded-class count, and
// the injected-fault tally. It is the one persisted shape of a result —
// what a disk cache stores, an executor returns and a shared flight hands
// its joiners.
type Outcome struct {
	Decomposition analysis.Decomposition
	GCStats       gc.Stats
	LoadedClasses int
	// FaultCounts tallies injected faults by "site.class" (nil unless a
	// fault plan was active and fired).
	FaultCounts map[string]int64
}

// Result bundles a run's Outcome with its meter (ground truth, thermal
// state). A result rebuilt from a persisted Outcome has a nil Meter.
type Result struct {
	Outcome
	Meter *Meter
}

// Characterize executes one characterization run to completion and returns
// its per-component decomposition, built from the sampled measurements the
// way the paper's offline analysis builds its figures. It is the one-lane
// case of CharacterizeSweep.
//
// Note on warm-up: the paper performs a warm-up run before measuring to
// warm OS and disk caches; the JVM is restarted for the measured run, so
// class loading and compilation still occur under measurement (which is why
// Figures 6, 9 and 11 show CL/compiler energy). The simulator has no OS
// page cache, so no warm-up pass is needed to reproduce that protocol.
func Characterize(cfg RunConfig) (Result, error) {
	res, errs := CharacterizeSweep([]RunConfig{cfg})
	return res[0], errs[0]
}

// CharacterizeSweep characterizes every lane from one VM run and returns
// one result and one error per lane, each what Characterize(lane) returns.
// The lanes must agree with the first on what the VM reads — Program,
// Profile, VM.Flavor, VM.Collector and VM.Seed — and the run's Ctx is the
// first lane's. They may differ in VM.HeapSize and in anything only a
// meter reads (Platform, DVFSPolicy, IdealChannels, FanOn, TraceSink,
// Faults, Metrics): no meter feeds back into the VM, so each lane's meter
// sees exactly the slices its own run would. More than one distinct heap
// needs the SemiSpace plan, whose heaps then run in lockstep (see
// vm.NewLockstep). The lanes of one heap share that heap's vm.Lane, whose
// executor is the lane's meter when it is alone and a fan-out over the
// heap's meters, in lane order, when it is not. A heap whose lane left the
// run on a failed allocation is characterized again as its own sweep of
// those lanes. A TraceSink records one whole run, so a sweep with one
// takes one heap: a heap that left the run would have fed its sinks a
// partial run before the re-run fed them a whole one.
func CharacterizeSweep(lanes []RunConfig) ([]Result, []error) {
	results, errs := make([]Result, len(lanes)), make([]error, len(lanes))
	fail := func(err error) ([]Result, []error) {
		for i := range errs {
			errs[i] = err
		}
		return results, errs
	}
	if len(lanes) == 0 {
		return results, errs
	}
	run := lanes[0]
	if run.Program == nil {
		return fail(fmt.Errorf("core: RunConfig.Program is required"))
	}
	for i, l := range lanes {
		if h := l.VM.HeapSize; h <= 0 {
			return fail(fmt.Errorf("core: heap size %v must be positive", h))
		}
		if l.Program != run.Program || l.Profile != run.Profile || l.VM.Flavor != run.VM.Flavor ||
			l.VM.Collector != run.VM.Collector || l.VM.Seed != run.VM.Seed {
			return fail(fmt.Errorf("core: lane %d runs another VM than lane 0; lanes may differ only in heap size and in what a meter reads", i))
		}
	}
	// Each lane's meter; a lane whose meter cannot be built fails alone.
	// The heaps of the others are the VM's lanes, in order of first use.
	aggs, meters := make([]*analysis.Aggregator, len(lanes)), make([]*Meter, len(lanes))
	var heaps []units.ByteSize
	var members [][]int // the lanes of each heap
	for i, l := range lanes {
		// The aggregator panics on a period the platform check rejects.
		if errs[i] = l.Platform.Validate(); errs[i] != nil {
			continue
		}
		aggs[i] = analysis.NewAggregator(l.Platform.DAQPeriod)
		var sink daq.Sink = aggs[i]
		if l.TraceSink != nil {
			sink = daq.MultiSink{aggs[i], l.TraceSink}
		}
		meters[i], errs[i] = NewMeter(l.Platform, MeterOptions{
			Sink:          sink,
			IdealChannels: l.IdealChannels,
			FanOn:         l.FanOn,
			Seed:          l.VM.Seed,
			DVFSPolicy:    l.DVFSPolicy,
			Metrics:       l.Metrics,
			Faults:        l.Faults,
		})
		if errs[i] != nil {
			continue
		}
		j := slices.Index(heaps, l.VM.HeapSize)
		if j < 0 {
			j = len(heaps)
			heaps = append(heaps, l.VM.HeapSize)
			members = append(members, nil)
		}
		members[j] = append(members[j], i)
	}
	if len(heaps) > 1 && slices.ContainsFunc(lanes, func(l RunConfig) bool { return l.TraceSink != nil }) {
		return fail(fmt.Errorf("core: a TraceSink records one run, not a sweep of %d heaps", len(heaps)))
	}
	if len(heaps) == 0 {
		return results, errs
	}
	vmLanes := make([]vm.Lane, len(heaps))
	for j, h := range heaps {
		fan := make(fanOut, len(members[j]))
		for k, i := range members[j] {
			fan[k] = meters[i]
		}
		var exec vm.Executor = fan
		if len(fan) == 1 {
			exec = fan[0] // a one-lane heap runs exactly as Characterize's own run
		}
		vmLanes[j] = vm.Lane{HeapSize: h, Exec: exec}
	}
	machine, err := vm.NewLockstep(run.VM, run.Program, vmLanes)
	if err != nil {
		for i := range lanes {
			if meters[i] != nil {
				errs[i] = err
			}
		}
		return results, errs
	}
	defer machine.ReleaseResources()
	for i, l := range lanes {
		if meters[i] != nil {
			l.Metrics.Counter("core.characterize.runs").Inc()
		}
	}
	machine.SetCancel(run.Ctx)
	runErr := machine.RunProfile(run.Profile)
	for j, h := range heaps {
		if machine.LaneLeft(j) != nil {
			alone := make([]RunConfig, len(members[j]))
			for k, i := range members[j] {
				alone[k] = lanes[i]
			}
			res, es := CharacterizeSweep(alone)
			for k, i := range members[j] {
				results[i], errs[i] = res[k], es[k]
			}
			continue
		}
		col := machine.LaneCollector(j)
		for _, i := range members[j] {
			l := lanes[i]
			if runErr != nil {
				errs[i] = fmt.Errorf("core: running %s on %s/%s heap %v: %w",
					run.Profile.Name, run.VM.Flavor, col.Name(), h, runErr)
				continue
			}
			dec := analysis.Build(
				run.Profile.Name,
				run.VM.Flavor.String(),
				col.Name(),
				l.Platform.Name,
				int(h>>20),
				aggs[i],
				meters[i].HPM(),
			)
			results[i] = Result{
				Outcome: Outcome{
					Decomposition: dec,
					GCStats:       col.Stats(),
					LoadedClasses: machine.Loader().LoadedCount(),
					FaultCounts:   meters[i].FaultCounts(),
				},
				Meter: meters[i],
			}
		}
	}
	return results, errs
}

// fanOut is the executor of a heap that several lanes share: each slice
// goes to every lane's meter, in lane order.
type fanOut []*Meter

// Execute prices the slice on every meter.
func (f fanOut) Execute(id component.ID, s cpu.Slice) {
	for _, m := range f {
		m.Execute(id, s)
	}
}
