package core

import (
	"context"
	"fmt"

	"jvmpower/internal/analysis"
	"jvmpower/internal/classfile"
	"jvmpower/internal/component"
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
	// (one per heap, and one more for a heap of a sweep characterized
	// again on its own) plus the DAQ's acquisition counters.
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
	// the simulation run to completion.
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
// way the paper's offline analysis builds its figures. It is the one-heap
// case of CharacterizeSweep, at cfg.VM.HeapSize.
//
// Note on warm-up: the paper performs a warm-up run before measuring to
// warm OS and disk caches; the JVM is restarted for the measured run, so
// class loading and compilation still occur under measurement (which is why
// Figures 6, 9 and 11 show CL/compiler energy). The simulator has no OS
// page cache, so no warm-up pass is needed to reproduce that protocol.
func Characterize(cfg RunConfig) (Result, error) {
	res, errs := CharacterizeSweep(cfg, []units.ByteSize{cfg.VM.HeapSize})
	return res[0], errs[0]
}

// CharacterizeSweep characterizes cfg at every heap size in heaps and
// returns one result and one error per heap, each what Characterize
// returns at that heap size (cfg.VM.HeapSize is not used). More than one
// heap needs the SemiSpace plan: one VM then runs them in lockstep (see
// vm.NewLockstep), one Meter per heap, and a heap whose lane left the run
// on a failed allocation is characterized again on its own. A TraceSink
// records one run, so it takes one heap.
func CharacterizeSweep(cfg RunConfig, heaps []units.ByteSize) ([]Result, []error) {
	results, errs := make([]Result, len(heaps)), make([]error, len(heaps))
	fail := func(err error) ([]Result, []error) {
		for i := range errs {
			errs[i] = err
		}
		return results, errs
	}
	if cfg.Program == nil {
		return fail(fmt.Errorf("core: RunConfig.Program is required"))
	}
	for _, h := range heaps {
		if h <= 0 {
			return fail(fmt.Errorf("core: heap size %v must be positive", h))
		}
	}
	if cfg.TraceSink != nil && len(heaps) > 1 {
		return fail(fmt.Errorf("core: a TraceSink records one run, not a sweep of %d heaps", len(heaps)))
	}
	cfg.Metrics.Counter("core.characterize.runs").Add(int64(len(heaps)))
	aggs := make([]*analysis.Aggregator, len(heaps))
	meters := make([]*Meter, len(heaps))
	lanes := make([]vm.Lane, len(heaps))
	for i, h := range heaps {
		aggs[i] = analysis.NewAggregator(cfg.Platform.DAQPeriod)
		var sink daq.Sink = aggs[i]
		if cfg.TraceSink != nil {
			sink = daq.MultiSink{aggs[i], cfg.TraceSink}
		}
		meter, err := NewMeter(cfg.Platform, MeterOptions{
			Sink:          sink,
			IdealChannels: cfg.IdealChannels,
			FanOn:         cfg.FanOn,
			Seed:          cfg.VM.Seed,
			DVFSPolicy:    cfg.DVFSPolicy,
			Metrics:       cfg.Metrics,
			Faults:        cfg.Faults,
		})
		if err != nil {
			return fail(err)
		}
		meters[i] = meter
		lanes[i] = vm.Lane{HeapSize: h, Exec: meter}
	}
	machine, err := vm.NewLockstep(cfg.VM, cfg.Program, lanes)
	if err != nil {
		return fail(err)
	}
	defer machine.ReleaseResources()
	machine.SetCancel(cfg.Ctx)
	runErr := machine.RunProfile(cfg.Profile)
	for i, h := range heaps {
		col := machine.LaneCollector(i)
		switch {
		case machine.LaneLeft(i) != nil:
			alone := cfg
			alone.VM.HeapSize = h
			results[i], errs[i] = Characterize(alone)
		case runErr != nil:
			errs[i] = fmt.Errorf("core: running %s on %s/%s heap %v: %w",
				cfg.Profile.Name, cfg.VM.Flavor, col.Name(), h, runErr)
		default:
			dec := analysis.Build(
				cfg.Profile.Name,
				cfg.VM.Flavor.String(),
				col.Name(),
				cfg.Platform.Name,
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
