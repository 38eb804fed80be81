// Package core implements the paper's primary contribution: the
// low-perturbation real-system measurement methodology of Figure 4. A
// Meter wires together the system under test's hardware models (processor
// timing, processor/memory power, package thermals), the component-ID port
// the instrumented JVM writes, the high-speed DAQ that samples power every
// 40 µs, and the OS-timer-driven HPM sampler — and drives them all from the
// stream of execution slices the virtual machine emits.
//
// The Meter also keeps ground-truth accounting (exact per-component energy
// and time, integrated per slice rather than sampled) that a physical rig
// cannot have. Tests use it to bound the error of the sampled methodology,
// and EXPERIMENTS.md reports results from the sampled path, as the paper
// does.
package core

import (
	"fmt"

	"jvmpower/internal/component"
	"jvmpower/internal/cpu"
	"jvmpower/internal/daq"
	"jvmpower/internal/faultinject"
	"jvmpower/internal/hpm"
	"jvmpower/internal/metrics"
	"jvmpower/internal/platform"
	"jvmpower/internal/power"
	"jvmpower/internal/thermal"
	"jvmpower/internal/units"
)

// MeterOptions configures a measurement session.
type MeterOptions struct {
	// Sink receives DAQ power samples. Required.
	Sink daq.Sink
	// IdealChannels bypasses the sense-resistor measurement chain so DAQ
	// samples carry true power (used by tests isolating sampling error).
	IdealChannels bool
	// FanOn sets the cooling state (Figure 1 contrasts fan on/off).
	FanOn bool
	// Seed drives the deterministic measurement noise.
	Seed uint64
	// DVFSPolicy, when set, returns the requested relative clock frequency
	// for each component (resolved to the platform's nearest operating
	// point). Nil runs everything at nominal frequency. This implements
	// the paper's Section VII direction: leveraging DVFS for energy.
	DVFSPolicy func(component.ID) float64
	// Metrics, when non-nil, receives pipeline instrumentation (DAQ sample
	// and batch counters); nil disables it at no cost beyond a nil check.
	Metrics *metrics.Registry
	// Faults, when non-nil and enabled, injects the plan's measurement-chain
	// failure modes into this session: DAQ sample drops and saturation,
	// sense-channel gain error and drift, component-port latch faults, and
	// HPM tick jitter and counter wrap. Each site's injector stream is
	// derived from (plan seed, site name, Seed), so campaigns replay
	// bit-for-bit. Nil — or a plan whose relevant rates are all zero —
	// leaves every layer on its exact uninstrumented path.
	Faults *faultinject.Plan
}

// GCLowFrequencyPolicy is a ready-made DVFS policy implementing the
// memory-boundedness insight of Sections VI-C and VII: the garbage
// collector stalls on L2 misses much of the time, so running it at a lower
// operating point costs little time and saves superlinear power.
func GCLowFrequencyPolicy(gcFreqScale float64) func(component.ID) float64 {
	return func(id component.ID) float64 {
		if id == component.GC {
			return gcFreqScale
		}
		return 1.0
	}
}

// Meter is one instrumented run: a platform under test plus the full
// measurement stack.
type Meter struct {
	plat platform.Platform
	core *cpu.Core
	port *daq.ComponentPort
	daq  *daq.DAQ
	hpm  *hpm.Sampler

	thermalModel thermal.Model
	thermalState *thermal.State
	dvfsPolicy   func(component.ID) float64
	// sliceObserver, when set, sees every executed slice's component,
	// timing result, and true power (the estimator extension's training
	// tap).
	sliceObserver func(component.ID, cpu.Result, units.Power)

	// faultSites lists the active fault injectors by site name, for
	// post-run tallying; empty when injection is disabled.
	faultSites []faultSite

	now units.Duration

	// Ground truth, integrated exactly per slice.
	trueCPUEnergy [component.N]units.Energy
	trueMemEnergy [component.N]units.Energy
	trueTime      [component.N]units.Duration
	trueCounters  [component.N]cpu.Counters
	truePeak      [component.N]units.Power
}

// NewMeter builds a measurement session on the given platform.
func NewMeter(plat platform.Platform, opts MeterOptions) (*Meter, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if opts.Sink == nil {
		return nil, fmt.Errorf("core: MeterOptions.Sink is required")
	}
	port := &daq.ComponentPort{}
	cfg := daq.Config{Period: plat.DAQPeriod, Metrics: opts.Metrics}
	if !opts.IdealChannels {
		cfg.CPUChannel = power.NewSenseChannel(plat.CPURailVolts, plat.CPUSenseOhms, opts.Seed)
		cfg.MemChannel = power.NewSenseChannel(plat.MemRailVolts, plat.MemSenseOhms, opts.Seed+1)
	}
	m := &Meter{
		plat:         plat,
		core:         cpu.NewCore(plat.CPU),
		port:         port,
		thermalModel: plat.Thermal,
		thermalState: plat.Thermal.NewState(opts.FanOn),
		dvfsPolicy:   opts.DVFSPolicy,
	}
	if opts.Faults.Enabled() {
		// Each layer's injector is derived from (plan seed, site name, run
		// seed); Site returns nil for sites whose fault classes all have
		// zero rates, leaving those layers on the exact disabled path.
		m.installInjector("port", opts.Faults.Site("port", opts.Seed,
			faultinject.StaleLatch, faultinject.Glitch), port.SetInjector)
		cfg.Injector = opts.Faults.Site("daq", opts.Seed,
			faultinject.SampleDrop, faultinject.ADCSaturate)
		m.recordSite("daq", cfg.Injector)
		if cfg.CPUChannel != nil {
			m.installInjector("sense.cpu", opts.Faults.Site("sense.cpu", opts.Seed,
				faultinject.Gain, faultinject.Drift), cfg.CPUChannel.SetInjector)
		}
		if cfg.MemChannel != nil {
			m.installInjector("sense.mem", opts.Faults.Site("sense.mem", opts.Seed,
				faultinject.Gain, faultinject.Drift), cfg.MemChannel.SetInjector)
		}
	}
	d, err := daq.New(cfg, port, opts.Sink)
	if err != nil {
		return nil, err
	}
	h, err := hpm.New(plat.HPMPeriod)
	if err != nil {
		return nil, err
	}
	if opts.Faults.Enabled() {
		m.installInjector("hpm", opts.Faults.Site("hpm", opts.Seed,
			faultinject.TickJitter, faultinject.CounterWrap), h.SetInjector)
	}
	m.daq = d
	m.hpm = h
	return m, nil
}

// faultSite pairs a site name with its live injector for tally export.
type faultSite struct {
	name string
	inj  *faultinject.Injector
}

// installInjector hands inj to a layer's setter and records it for
// post-run tallying; a nil injector (disabled site) installs nothing.
func (m *Meter) installInjector(name string, inj *faultinject.Injector, set func(*faultinject.Injector)) {
	if inj == nil {
		return
	}
	set(inj)
	m.recordSite(name, inj)
}

func (m *Meter) recordSite(name string, inj *faultinject.Injector) {
	if inj != nil {
		m.faultSites = append(m.faultSites, faultSite{name, inj})
	}
}

// FaultCounts tallies every injected fault this session has fired, keyed
// "site.class" (e.g. "daq.drop"); nil when injection is disabled or
// nothing fired.
func (m *Meter) FaultCounts() map[string]int64 {
	var out map[string]int64
	for _, s := range m.faultSites {
		for class, n := range s.inj.Counts() {
			if out == nil {
				out = make(map[string]int64)
			}
			out[s.name+"."+class] += n
		}
	}
	return out
}

// Now returns the simulated wall-clock time since the session began.
func (m *Meter) Now() units.Duration { return m.now }

// Port returns the component-ID port (the VM writes it on dispatch).
func (m *Meter) Port() *daq.ComponentPort { return m.port }

// HPM returns the performance sampler for offline analysis.
func (m *Meter) HPM() *hpm.Sampler { return m.hpm }

// DAQSamples reports how many power samples have been acquired.
func (m *Meter) DAQSamples() int64 { return m.daq.Samples() }

// Thermal returns the evolving thermal state.
func (m *Meter) Thermal() *thermal.State { return m.thermalState }

// SetSliceObserver registers a tap that sees every slice's component,
// timing result, and true processor power.
func (m *Meter) SetSliceObserver(fn func(component.ID, cpu.Result, units.Power)) {
	m.sliceObserver = fn
}

// Execute runs one slice of work attributed to the given component: the VM
// writes the component port, the core model prices the slice, thermal
// throttling stretches it if engaged, and the DAQ and HPM observe the
// elapsed interval.
func (m *Meter) Execute(id component.ID, s cpu.Slice) {
	m.port.Write(id)
	op := m.operatingPoint(id)
	r, delta := m.core.ExecuteBatch(s, op.FreqScale)
	m.accountAt(id, r, delta, op)
}

// operatingPoint resolves the DVFS policy for a component.
func (m *Meter) operatingPoint(id component.ID) power.OperatingPoint {
	if m.dvfsPolicy == nil {
		return m.plat.DVFS.Points[0]
	}
	return m.plat.DVFS.Nearest(m.dvfsPolicy(id))
}

// ExecuteMeasured is Execute for a slice whose cache misses the caller
// counted itself, priced at the nominal operating point. The VM never
// calls it: only perfbench's replay tap (perfbench/replay.go) does.
func (m *Meter) ExecuteMeasured(id component.ID, instructions int64, prof cpu.MissProfile, ifetchMisses int64) {
	m.port.Write(id)
	r, delta := m.core.ExecuteMeasuredBatch(instructions, prof, ifetchMisses)
	m.accountAt(id, r, delta, m.plat.DVFS.Points[0])
}

func (m *Meter) accountAt(id component.ID, r cpu.Result, delta cpu.Counters, op power.OperatingPoint) {
	duty := m.thermalModel.Duty(m.thermalState)
	dur := r.Duration
	cpuP := m.plat.CPUPower.PowerAt(r.IPC, m.plat.DVFS, op)
	if duty < 1 {
		// Emergency throttling: the clock runs duty of the time, so the
		// slice takes 1/duty longer and dissipates the duty-weighted mix
		// of running and gated power.
		dur = units.Duration(float64(dur) / duty)
		gated := units.Power(float64(m.plat.CPUPower.Idle) * 0.7)
		cpuP = units.Power(duty*float64(cpuP) + (1-duty)*float64(gated))
	}
	var memP units.Power
	if dur > 0 {
		memP = m.plat.MemPower.Power(float64(r.DRAMAccesses) / dur.Seconds())
	} else {
		memP = m.plat.MemPower.Idle
	}

	m.thermalModel.Step(m.thermalState, cpuP, dur)
	m.daq.Observe(dur, cpuP, memP)
	m.hpm.Observe(dur, id, delta)
	if m.sliceObserver != nil {
		m.sliceObserver(id, r, cpuP)
	}

	m.now += dur
	m.trueCPUEnergy[id] += cpuP.For(dur)
	m.trueMemEnergy[id] += memP.For(dur)
	m.trueTime[id] += dur
	m.trueCounters[id] = m.trueCounters[id].Add(delta)
	if cpuP > m.truePeak[id] {
		m.truePeak[id] = cpuP
	}
}

// TrueCPUEnergy returns ground-truth processor energy for a component.
func (m *Meter) TrueCPUEnergy(id component.ID) units.Energy { return m.trueCPUEnergy[id] }

// TrueMemEnergy returns ground-truth memory energy for a component.
func (m *Meter) TrueMemEnergy(id component.ID) units.Energy { return m.trueMemEnergy[id] }

// TrueTime returns ground-truth execution time for a component.
func (m *Meter) TrueTime(id component.ID) units.Duration { return m.trueTime[id] }

// TrueCounters returns ground-truth HPM counters for a component.
func (m *Meter) TrueCounters(id component.ID) cpu.Counters { return m.trueCounters[id] }

// TruePeak returns the ground-truth peak processor power observed while a
// component was executing.
func (m *Meter) TruePeak(id component.ID) units.Power { return m.truePeak[id] }

// TrueTotalCPUEnergy sums processor energy over all components.
func (m *Meter) TrueTotalCPUEnergy() units.Energy {
	var e units.Energy
	for i := component.ID(0); i < component.N; i++ {
		e += m.trueCPUEnergy[i]
	}
	return e
}

// TrueTotalMemEnergy sums memory energy over all components.
func (m *Meter) TrueTotalMemEnergy() units.Energy {
	var e units.Energy
	for i := component.ID(0); i < component.N; i++ {
		e += m.trueMemEnergy[i]
	}
	return e
}
