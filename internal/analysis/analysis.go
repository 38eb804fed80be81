// Package analysis implements the offline analysis stage of the paper's
// infrastructure (the right-hand block of Figure 4): DAQ power samples are
// aggregated per component, matched with HPM performance traces, and turned
// into the per-component energy/power/time decompositions, energy-delay
// products, and peak-power figures the evaluation section reports.
package analysis

import (
	"fmt"

	"jvmpower/internal/component"
	"jvmpower/internal/cpu"
	"jvmpower/internal/daq"
	"jvmpower/internal/hpm"
	"jvmpower/internal/units"
)

// Aggregator is a daq.Sink that aggregates samples per component online,
// so experiment-scale runs need not retain multi-million-sample traces.
type Aggregator struct {
	period units.Duration
	comp   [component.N]compAgg
}

type compAgg struct {
	samples int64
	cpuJ    float64
	memJ    float64
	sumCPUW float64
	peakCPU units.Power
}

// NewAggregator returns an aggregator for samples taken every period.
func NewAggregator(period units.Duration) *Aggregator {
	if period <= 0 {
		panic(fmt.Sprintf("analysis: aggregator period %v", period))
	}
	return &Aggregator{period: period}
}

// Sample implements daq.Sink: each sample contributes period×power of
// energy to the component latched at the sample instant.
func (a *Aggregator) Sample(s daq.Sample) {
	c := &a.comp[s.Component]
	c.samples++
	sec := a.period.Seconds()
	c.cpuJ += float64(s.CPU) * sec
	c.memJ += float64(s.Mem) * sec
	c.sumCPUW += float64(s.CPU)
	if s.CPU > c.peakCPU {
		c.peakCPU = s.CPU
	}
}

// SampleBatch implements daq.BatchSink. Accumulation order is the sample
// order, so the sums are bit-identical to per-sample delivery; only the
// per-sample dispatch and period conversion are hoisted out of the loop.
func (a *Aggregator) SampleBatch(batch []daq.Sample) {
	sec := a.period.Seconds()
	for i := range batch {
		s := &batch[i]
		c := &a.comp[s.Component]
		c.samples++
		c.cpuJ += float64(s.CPU) * sec
		c.memJ += float64(s.Mem) * sec
		c.sumCPUW += float64(s.CPU)
		if s.CPU > c.peakCPU {
			c.peakCPU = s.CPU
		}
	}
}

// Samples reports the sample count attributed to a component.
func (a *Aggregator) Samples(id component.ID) int64 { return a.comp[id].samples }

// CPUEnergy reports processor energy attributed to a component.
func (a *Aggregator) CPUEnergy(id component.ID) units.Energy { return units.Energy(a.comp[id].cpuJ) }

// MemEnergy reports memory energy attributed to a component.
func (a *Aggregator) MemEnergy(id component.ID) units.Energy { return units.Energy(a.comp[id].memJ) }

// AvgPower reports the mean sampled processor power of a component.
func (a *Aggregator) AvgPower(id component.ID) units.Power {
	c := a.comp[id]
	if c.samples == 0 {
		return 0
	}
	return units.Power(c.sumCPUW / float64(c.samples))
}

// PeakPower reports the highest processor power sample of a component.
func (a *Aggregator) PeakPower(id component.ID) units.Power { return a.comp[id].peakCPU }

// Time reports execution time attributed to a component (samples × period).
func (a *Aggregator) Time(id component.ID) units.Duration {
	return units.Duration(a.comp[id].samples) * a.period
}

// Decomposition is the complete per-run analysis result: everything the
// paper's figures report for one (benchmark, VM, collector, heap, platform)
// point.
type Decomposition struct {
	Benchmark string
	VM        string
	Collector string
	Platform  string
	HeapMB    int

	CPUEnergy [component.N]units.Energy
	MemEnergy [component.N]units.Energy
	Time      [component.N]units.Duration
	AvgPower  [component.N]units.Power
	PeakPower [component.N]units.Power
	Counters  [component.N]cpu.Counters

	TotalCPUEnergy units.Energy
	TotalMemEnergy units.Energy
	TotalEnergy    units.Energy
	TotalTime      units.Duration
	EDP            units.EDP
}

// Build assembles a decomposition from the power aggregation and the HPM
// sampler of one run. Idle samples (before/after the run) are excluded
// from totals, as the paper measures from benchmark start to completion.
func Build(benchmark, vmName, collector, platformName string, heapMB int,
	agg *Aggregator, perf *hpm.Sampler) Decomposition {

	d := Decomposition{
		Benchmark: benchmark,
		VM:        vmName,
		Collector: collector,
		Platform:  platformName,
		HeapMB:    heapMB,
	}
	for id := component.ID(0); id < component.N; id++ {
		d.CPUEnergy[id] = agg.CPUEnergy(id)
		d.MemEnergy[id] = agg.MemEnergy(id)
		d.Time[id] = agg.Time(id)
		d.AvgPower[id] = agg.AvgPower(id)
		d.PeakPower[id] = agg.PeakPower(id)
		if perf != nil {
			d.Counters[id] = perf.Counters(id)
		}
		if id == component.Idle {
			continue
		}
		d.TotalCPUEnergy += d.CPUEnergy[id]
		d.TotalMemEnergy += d.MemEnergy[id]
		d.TotalTime += d.Time[id]
	}
	d.TotalEnergy = d.TotalCPUEnergy + d.TotalMemEnergy
	d.EDP = units.EnergyDelay(d.TotalEnergy, d.TotalTime)
	return d
}

// CPUEnergyFrac reports a component's share of processor energy — the
// quantity Figures 6, 9 and 11 plot.
func (d *Decomposition) CPUEnergyFrac(id component.ID) float64 {
	if d.TotalCPUEnergy == 0 {
		return 0
	}
	return float64(d.CPUEnergy[id]) / float64(d.TotalCPUEnergy)
}

// JVMEnergyFrac reports the virtual machine's share of processor energy:
// every monitored component except the application (the paper's "JVM
// energy", which reaches 60% for _213_javac at a 32 MB heap).
func (d *Decomposition) JVMEnergyFrac() float64 {
	if d.TotalCPUEnergy == 0 {
		return 0
	}
	var e units.Energy
	for _, id := range component.VMComponents() {
		e += d.CPUEnergy[id]
	}
	return float64(e) / float64(d.TotalCPUEnergy)
}

// MemEnergyFrac reports main memory's share of total energy (Section VI-B:
// ≈7% SpecJVM98, 5% DaCapo, 8% JGF).
func (d *Decomposition) MemEnergyFrac() float64 {
	if d.TotalEnergy == 0 {
		return 0
	}
	return float64(d.TotalMemEnergy) / float64(d.TotalEnergy)
}

// TimeFrac reports a component's share of execution time.
func (d *Decomposition) TimeFrac(id component.ID) float64 {
	if d.TotalTime == 0 {
		return 0
	}
	return float64(d.Time[id]) / float64(d.TotalTime)
}

// OverallPeak reports the highest power sample of the whole run and which
// component it occurred in (Figure 8's peak-power question: application or
// JVM service?).
func (d *Decomposition) OverallPeak() (units.Power, component.ID) {
	var best units.Power
	var who component.ID
	for id := component.ID(0); id < component.N; id++ {
		if id == component.Idle {
			continue
		}
		if d.PeakPower[id] > best {
			best = d.PeakPower[id]
			who = id
		}
	}
	return best, who
}

// IPC reports a component's measured IPC from its HPM counters.
func (d *Decomposition) IPC(id component.ID) float64 { return d.Counters[id].IPC() }

// L2MissRate reports a component's measured L2 miss rate from its HPM
// counters.
func (d *Decomposition) L2MissRate(id component.ID) float64 { return d.Counters[id].L2MissRate() }
