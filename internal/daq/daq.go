// Package daq models the data-acquisition half of the paper's measurement
// infrastructure (Figure 4): a component-ID port (the memory-mapped I/O
// register the instrumented JVM writes — parallel-port pins on the P6
// platform, GPIO pins on the DBPXA255) and a multi-channel sampler that
// digitizes processor and memory power every sampling period (40 µs),
// tagging each sample with whatever component ID the port holds at the
// sample instant.
//
// The sampler inherits the paper's fidelity limits by construction:
// component switches between sample instants are invisible, and a
// component's samples include whatever measurement-chain noise the sense
// channels add. Tests quantify both effects against the simulator's
// ground-truth energy accounting.
package daq

import (
	"fmt"

	"jvmpower/internal/component"
	"jvmpower/internal/faultinject"
	"jvmpower/internal/metrics"
	"jvmpower/internal/power"
	"jvmpower/internal/units"
)

// ComponentPort is the memory-mapped I/O register. The VM writes a
// component ID on every component entry/exit (Kaffe) or thread dispatch
// (Jikes); the DAQ reads it at each sample instant.
type ComponentPort struct {
	id     component.ID
	writes int64

	// inj, when non-nil, injects StaleLatch (a write never latches) and
	// Glitch (a read catches the pins mid-transition) faults.
	inj *faultinject.Injector
}

// SetInjector installs a fault injector on the port (nil disables it).
func (p *ComponentPort) SetInjector(inj *faultinject.Injector) { p.inj = inj }

// Write latches a component ID into the port. Under an injected StaleLatch
// fault the write is lost and the latch keeps its previous value — the
// port-glitch failure mode of the paper's parallel-port wiring.
func (p *ComponentPort) Write(id component.ID) {
	p.writes++
	if p.inj.Fire(faultinject.StaleLatch) {
		return
	}
	p.id = id
}

// Read returns the currently latched ID. Under an injected Glitch fault the
// pins are caught mid-transition and a corrupted (but in-range) ID is
// returned; the latch itself is unharmed.
func (p *ComponentPort) Read() component.ID {
	if p.inj.Fire(faultinject.Glitch) {
		if g := p.id ^ 1; g < component.N {
			return g
		}
	}
	return p.id
}

// Writes reports how many times the VM wrote the port (instrumentation
// overhead accounting).
func (p *ComponentPort) Writes() int64 { return p.writes }

// Sample is one DAQ record: instantaneous processor and memory power plus
// the component ID latched at the sample instant.
type Sample struct {
	Time      units.Duration // since acquisition start
	CPU       units.Power
	Mem       units.Power
	Component component.ID
}

// Sink consumes samples as they are acquired. The analysis layer provides
// either a full trace recorder or an online aggregator.
type Sink interface {
	Sample(Sample)
}

// BatchSink is a Sink that can additionally consume a run of consecutive
// samples in one call, eliminating per-sample interface dispatch on the
// acquisition fast path. The slice passed to SampleBatch is a buffer the
// DAQ reuses across calls: implementations must copy out anything they
// retain past the call.
type BatchSink interface {
	Sink
	SampleBatch([]Sample)
}

// AsBatchSink adapts any Sink to the batch interface: sinks that already
// implement BatchSink are returned unchanged, others get a compatibility
// shim that delivers batches one sample at a time.
func AsBatchSink(s Sink) BatchSink {
	if bs, ok := s.(BatchSink); ok {
		return bs
	}
	return perSampleSink{s}
}

// perSampleSink is the compatibility shim for plain Sinks.
type perSampleSink struct {
	Sink
}

// SampleBatch implements BatchSink by per-sample delivery.
func (p perSampleSink) SampleBatch(batch []Sample) {
	for _, s := range batch {
		p.Sink.Sample(s)
	}
}

// Config describes a DAQ setup.
type Config struct {
	// Period is the sampling interval; the paper's system samples every
	// 40 µs (the fastest its card supports at the used channel count).
	Period units.Duration
	// CPUChannel and MemChannel are the sense-resistor measurement chains;
	// nil channels record true power (ideal measurement, used by tests to
	// isolate sampling error from measurement noise).
	CPUChannel *power.SenseChannel
	MemChannel *power.SenseChannel
	// Metrics, when non-nil, receives acquisition counters ("daq.samples",
	// "daq.batches"). Counters are updated once per emitted batch — never
	// per sample — so the fast path pays one atomic add per ≤256 samples.
	Metrics *metrics.Registry
	// Injector, when non-nil, injects SampleDrop (conversions lost under
	// load) and ADCSaturate (samples clamped to full scale) faults. Nil
	// keeps Observe on the exact uninstrumented fast path.
	Injector *faultinject.Injector
}

// observeBatch is the largest run of samples the DAQ materializes per
// SampleBatch call; bounded so the buffer stays cache-resident no matter
// how long a constant-power interval is.
const observeBatch = 256

// DAQ is the sampler.
type DAQ struct {
	cfg       Config
	port      *ComponentPort
	sink      BatchSink
	now       units.Duration
	untilNext units.Duration
	samples   int64

	// Reusable batch buffers: one Observe call may emit millions of
	// samples, delivered in observeBatch-sized runs with no per-sample
	// dispatch or allocation.
	buf    []Sample
	cpuBuf []units.Power
	memBuf []units.Power

	// Instrumentation counters, resolved once at construction (nil and
	// no-op when Config.Metrics is nil).
	samplesC *metrics.Counter
	batchesC *metrics.Counter

	// Fault injection (nil when disabled). droppedC counts samples lost to
	// injected SampleDrop faults; they are excluded from the samples count,
	// as a conversion that never completed is on a real card.
	inj      *faultinject.Injector
	droppedC *metrics.Counter
	satC     *metrics.Counter
}

// New returns a DAQ reading the given port and delivering to sink. Sinks
// implementing BatchSink receive samples in runs; plain Sinks are adapted
// per sample.
func New(cfg Config, port *ComponentPort, sink Sink) (*DAQ, error) {
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("daq: sampling period %v must be positive", cfg.Period)
	}
	if port == nil || sink == nil {
		return nil, fmt.Errorf("daq: port and sink are required")
	}
	d := &DAQ{
		cfg:       cfg,
		port:      port,
		sink:      AsBatchSink(sink),
		untilNext: cfg.Period,
		buf:       make([]Sample, observeBatch),
		cpuBuf:    make([]units.Power, observeBatch),
		memBuf:    make([]units.Power, observeBatch),
		samplesC:  cfg.Metrics.Counter("daq.samples"),
		batchesC:  cfg.Metrics.Counter("daq.batches"),
		inj:       cfg.Injector,
	}
	if d.inj != nil {
		d.droppedC = cfg.Metrics.Counter("daq.samples.dropped")
		d.satC = cfg.Metrics.Counter("daq.samples.saturated")
	}
	return d, nil
}

// Observe advances acquisition time by dt during which true processor and
// memory power are constant at cpuTrue/memTrue. Every sample instant that
// falls within dt produces one Sample through the measurement chains.
// Power excursions shorter than the period that fall between instants are
// lost, exactly as on the real system.
//
// All samples for the interval are emitted in bulk: the power is constant,
// so the measurement chains run their quantization once per interval
// (power.SenseChannel.MeasureRun) and the sink sees observeBatch-sized
// runs — bit-identical to the per-sample path, without its dispatch cost.
func (d *DAQ) Observe(dt units.Duration, cpuTrue, memTrue units.Power) {
	if dt < d.untilNext {
		if dt > 0 {
			d.now += dt
			d.untilNext -= dt
		}
		return
	}
	// At least one sample instant falls inside dt. The port cannot change
	// during the interval (the VM writes it only between slices), so one
	// read covers the whole run.
	n := int64((dt-d.untilNext)/d.cfg.Period) + 1
	consumed := d.untilNext + units.Duration(n-1)*d.cfg.Period
	t := d.now + d.untilNext
	id := d.port.Read()
	for rem := n; rem > 0; {
		k := rem
		if k > observeBatch {
			k = observeBatch
		}
		buf := d.buf[:k]
		for i := range buf {
			buf[i] = Sample{Time: t, CPU: cpuTrue, Mem: memTrue, Component: id}
			t += d.cfg.Period
		}
		if d.cfg.CPUChannel != nil {
			d.cfg.CPUChannel.MeasureRun(cpuTrue, d.cpuBuf[:k])
			for i := range buf {
				buf[i].CPU = d.cpuBuf[i]
			}
		}
		if d.cfg.MemChannel != nil {
			d.cfg.MemChannel.MeasureRun(memTrue, d.memBuf[:k])
			for i := range buf {
				buf[i].Mem = d.memBuf[i]
			}
		}
		if d.inj != nil {
			buf = d.applyFaults(buf)
		}
		if len(buf) > 0 {
			d.samples += int64(len(buf))
			d.samplesC.Add(int64(len(buf)))
			d.batchesC.Inc()
			d.sink.SampleBatch(buf)
		}
		rem -= k
	}
	left := dt - consumed // in [0, Period)
	d.now += dt
	d.untilNext = d.cfg.Period - left
}

// applyFaults runs one measured batch through the injected DAQ failure
// modes: dropped samples are compacted out (the conversion never happened),
// saturated samples report the channel's full-scale reconstruction. Only
// reached when an injector is installed; the disabled path never branches
// per sample.
func (d *DAQ) applyFaults(buf []Sample) []Sample {
	w := 0
	for i := range buf {
		if d.inj.Fire(faultinject.SampleDrop) {
			d.droppedC.Inc()
			continue
		}
		s := buf[i]
		if d.inj.Fire(faultinject.ADCSaturate) {
			if d.cfg.CPUChannel != nil {
				s.CPU = d.cfg.CPUChannel.FullScalePower()
			}
			if d.cfg.MemChannel != nil {
				s.Mem = d.cfg.MemChannel.FullScalePower()
			}
			d.satC.Inc()
		}
		buf[w] = s
		w++
	}
	return buf[:w]
}

// Now reports acquisition time.
func (d *DAQ) Now() units.Duration { return d.now }

// Samples reports how many samples have been taken.
func (d *DAQ) Samples() int64 { return d.samples }

// Period reports the sampling interval.
func (d *DAQ) Period() units.Duration { return d.cfg.Period }

// TraceRecorder is a Sink retaining every sample (examples, tests, small
// runs).
type TraceRecorder struct {
	Trace []Sample
}

// Sample implements Sink.
func (t *TraceRecorder) Sample(s Sample) { t.Trace = append(t.Trace, s) }

// SampleBatch implements BatchSink (the append copies the run out of the
// DAQ's reused buffer).
func (t *TraceRecorder) SampleBatch(batch []Sample) { t.Trace = append(t.Trace, batch...) }

// MultiSink fans each sample out to several sinks (e.g. an online
// aggregator plus a full-trace recorder).
type MultiSink []Sink

// Sample implements Sink.
func (m MultiSink) Sample(s Sample) {
	for _, sink := range m {
		sink.Sample(s)
	}
}

// SampleBatch implements BatchSink, fanning each run out batch-wise to the
// members that support it.
func (m MultiSink) SampleBatch(batch []Sample) {
	for _, sink := range m {
		if bs, ok := sink.(BatchSink); ok {
			bs.SampleBatch(batch)
			continue
		}
		for _, s := range batch {
			sink.Sample(s)
		}
	}
}
