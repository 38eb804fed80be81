package core

import (
	"fmt"

	"jvmpower/internal/analysis"
	"jvmpower/internal/classfile"
	"jvmpower/internal/component"
	"jvmpower/internal/daq"
	"jvmpower/internal/faultinject"
	"jvmpower/internal/gc"
	"jvmpower/internal/metrics"
	"jvmpower/internal/platform"
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
	// plus the DAQ's acquisition counters. Instrumentation never touches
	// figure output — runs are byte-identical with it on or off.
	Metrics *metrics.Registry
	// Faults, when non-nil and enabled, injects measurement-chain failure
	// modes into the run (see MeterOptions.Faults). Nil or disabled keeps
	// every layer on its exact uninstrumented path.
	Faults *faultinject.Plan
	// Cancel, when non-nil, aborts the run at the next VM segment boundary
	// once closed: Characterize returns an error wrapping vm.ErrCancelled
	// and the partial measurement is discarded. This is how a dispatcher
	// that has timed an attempt out reclaims the goroutine and the CPU it
	// was burning, instead of letting the abandoned simulation run to
	// completion.
	Cancel <-chan struct{}
}

// Result bundles the decomposition with the meter (ground truth, thermal
// state) and the VM's collector statistics.
type Result struct {
	Decomposition analysis.Decomposition
	Meter         *Meter
	GCStats       gc.Stats
	LoadedClasses int
	// FaultCounts tallies injected faults by "site.class" (nil unless a
	// fault plan was active and fired).
	FaultCounts map[string]int64
}

// Characterize executes one characterization run to completion and returns
// its per-component decomposition, built from the sampled measurements the
// way the paper's offline analysis builds its figures.
//
// Note on warm-up: the paper performs a warm-up run before measuring to
// warm OS and disk caches; the JVM is restarted for the measured run, so
// class loading and compilation still occur under measurement (which is why
// Figures 6, 9 and 11 show CL/compiler energy). The simulator has no OS
// page cache, so no warm-up pass is needed to reproduce that protocol.
func Characterize(cfg RunConfig) (Result, error) {
	if cfg.Program == nil {
		return Result{}, fmt.Errorf("core: RunConfig.Program is required")
	}
	if cfg.VM.HeapSize <= 0 {
		return Result{}, fmt.Errorf("core: heap size %v must be positive", cfg.VM.HeapSize)
	}
	agg := analysis.NewAggregator(cfg.Platform.DAQPeriod)
	var sink daq.Sink = agg
	if cfg.TraceSink != nil {
		sink = daq.MultiSink{agg, cfg.TraceSink}
	}
	cfg.Metrics.Counter("core.characterize.runs").Inc()
	opts := MeterOptions{
		Sink:          sink,
		IdealChannels: cfg.IdealChannels,
		FanOn:         cfg.FanOn,
		Seed:          cfg.VM.Seed,
		DVFSPolicy:    cfg.DVFSPolicy,
		Metrics:       cfg.Metrics,
		Faults:        cfg.Faults,
	}
	meter, err := NewMeter(cfg.Platform, opts)
	if err != nil {
		return Result{}, err
	}
	machine, err := vm.New(cfg.VM, cfg.Program, meter)
	if err != nil {
		return Result{}, err
	}
	defer machine.ReleaseResources()
	machine.SetCancel(cfg.Cancel)
	if err := machine.RunProfile(cfg.Profile); err != nil {
		return Result{}, fmt.Errorf("core: running %s on %s/%s heap %v: %w",
			cfg.Profile.Name, cfg.VM.Flavor, machine.Collector().Name(), cfg.VM.HeapSize, err)
	}
	dec := analysis.Build(
		cfg.Profile.Name,
		cfg.VM.Flavor.String(),
		machine.Collector().Name(),
		cfg.Platform.Name,
		int(cfg.VM.HeapSize>>20),
		agg,
		meter.HPM(),
	)
	return Result{
		Decomposition: dec,
		Meter:         meter,
		GCStats:       machine.Collector().Stats(),
		LoadedClasses: machine.Loader().LoadedCount(),
		FaultCounts:   meter.FaultCounts(),
	}, nil
}
