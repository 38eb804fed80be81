// Package hpm models the performance-measurement half of the paper's
// infrastructure (Section IV-E): the processor's hardware performance
// monitors are read by the operating system's timer interrupt (every 1 ms
// on the P6 platform, 10 ms on the DBPXA255), and each interval's counter
// deltas are attributed to whatever JVM component is executing at the tick
// — the component the VM last declared through its entry system call.
//
// This is statistical sampling: an interval spanning a component switch is
// attributed wholly to the component running at its end. The attribution
// skew that creates is part of the methodology the paper validates, and the
// tests here bound it against ground truth.
package hpm

import (
	"fmt"

	"jvmpower/internal/component"
	"jvmpower/internal/cpu"
	"jvmpower/internal/faultinject"
	"jvmpower/internal/units"
)

// Sampler attributes HPM counter deltas to components at OS-timer ticks.
type Sampler struct {
	period    units.Duration
	untilTick units.Duration
	now       units.Duration

	// pending accumulates counters since the last tick.
	pending cpu.Counters

	perComp  [component.N]cpu.Counters
	tickHits [component.N]int64
	ticks    int64

	// inj, when non-nil, injects TickJitter (a displaced OS timer tick)
	// and CounterWrap (an interval lost to a wrapped hardware counter).
	inj *faultinject.Injector
}

// SetInjector installs a fault injector on the sampler (nil disables it).
func (s *Sampler) SetInjector(inj *faultinject.Injector) { s.inj = inj }

// New returns a sampler with the given OS timer period.
func New(period units.Duration) (*Sampler, error) {
	if period <= 0 {
		return nil, fmt.Errorf("hpm: timer period %v must be positive", period)
	}
	return &Sampler{period: period, untilTick: period}, nil
}

// Observe advances time by dt during which comp executed and the HPM
// registers advanced by delta. Counter growth is treated as uniform across
// dt when a tick splits the interval.
func (s *Sampler) Observe(dt units.Duration, comp component.ID, delta cpu.Counters) {
	if dt <= 0 {
		s.pending = s.pending.Add(delta)
		return
	}
	remaining := dt
	left := delta
	for remaining >= s.untilTick {
		// Portion of the slice up to the tick.
		frac := float64(s.untilTick) / float64(remaining)
		part := scale(left, frac)
		left = left.Sub(part)
		s.pending = s.pending.Add(part)
		s.now += s.untilTick
		remaining -= s.untilTick
		s.untilTick = s.period
		if s.inj != nil {
			if s.inj.Fire(faultinject.TickJitter) {
				// The next tick lands early or late by up to JitterFrac of
				// the period — scheduling latency on a loaded system.
				f := 1 + faultinject.JitterFrac*(2*s.inj.Uniform()-1)
				s.untilTick = units.Duration(float64(s.period) * f)
			}
			if s.inj.Fire(faultinject.CounterWrap) {
				// A counter wrapped between ticks; the reader cannot
				// reconstruct the interval's deltas and loses them.
				s.pending = cpu.Counters{}
			}
		}

		// Tick: attribute everything since the previous tick to the
		// component running now.
		s.perComp[comp] = s.perComp[comp].Add(s.pending)
		s.tickHits[comp]++
		s.ticks++
		s.pending = cpu.Counters{}
	}
	s.pending = s.pending.Add(left)
	s.untilTick -= remaining
	s.now += remaining
}

func scale(c cpu.Counters, f float64) cpu.Counters {
	return cpu.Counters{
		Cycles:       int64(float64(c.Cycles) * f),
		Instructions: int64(float64(c.Instructions) * f),
		L1DMisses:    int64(float64(c.L1DMisses) * f),
		L2Accesses:   int64(float64(c.L2Accesses) * f),
		L2Misses:     int64(float64(c.L2Misses) * f),
		DRAMAccesses: int64(float64(c.DRAMAccesses) * f),
		IFetchMisses: int64(float64(c.IFetchMisses) * f),
	}
}

// Counters returns the counters attributed to a component so far.
func (s *Sampler) Counters(c component.ID) cpu.Counters { return s.perComp[c] }

// Time returns the execution time attributed to a component: its tick
// count times the sampling period, the paper's performance-measurement
// estimate.
func (s *Sampler) Time(c component.ID) units.Duration {
	return units.Duration(s.tickHits[c]) * s.period
}

// Ticks reports total timer ticks taken.
func (s *Sampler) Ticks() int64 { return s.ticks }
