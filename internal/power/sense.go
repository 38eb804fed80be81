package power

import (
	"jvmpower/internal/faultinject"
	"jvmpower/internal/units"
)

// SenseChannel models one physical measurement channel of the paper's
// setup: a precision resistor in series with a supply rail, whose voltage
// drop (proportional to current) is digitized by the DAQ's ADC alongside
// the rail voltage. P = V·I is then computed offline. The channel
// reproduces the measurement imperfections a real chain has — resistor
// tolerance, amplifier gain error, ADC quantization, and a small
// deterministic noise floor — so that the analysis layer demonstrably
// tolerates them, as the paper's does.
type SenseChannel struct {
	// Rail voltage of the supply being sensed.
	RailVolts float64
	// ResistorOhms is the nominal sense resistance; ResistorTolerance the
	// relative part error baked into this channel (e.g. ±0.1%).
	ResistorOhms      float64
	ResistorTolerance float64
	// GainError is the instrumentation amplifier's relative gain error.
	GainError float64
	// ADCBits and ADCFullScaleVolts define quantization of the sensed
	// drop voltage.
	ADCBits           int
	ADCFullScaleVolts float64
	// NoiseFloorWatts is the peak of a deterministic triangular dither
	// added to measurements, standing in for switching noise.
	NoiseFloorWatts float64

	seed uint64
	n    uint64

	// inj, when non-nil, injects Gain (per-run amplifier gain excursions)
	// and Drift (slowly accumulating multiplicative drift) faults. drift is
	// the accumulated relative drift so far.
	inj   *faultinject.Injector
	drift float64
}

// NewSenseChannel returns a channel with the paper-like defaults for the
// given rail: 12-bit DAQ, 0.1% resistor, 0.5% gain error.
func NewSenseChannel(railVolts, resistorOhms float64, seed uint64) *SenseChannel {
	return &SenseChannel{
		RailVolts:         railVolts,
		ResistorOhms:      resistorOhms,
		ResistorTolerance: 0.001,
		GainError:         0.005,
		ADCBits:           12,
		ADCFullScaleVolts: 1.0,
		NoiseFloorWatts:   0.004 * railVolts, // scales with the rail
		seed:              seed,
	}
}

// SetInjector installs a fault injector on the channel (nil disables
// injection; the measurement path is then byte-identical to a channel that
// never had one).
func (s *SenseChannel) SetInjector(inj *faultinject.Injector) { s.inj = inj }

// FullScalePower is the power reading reconstructed from a full-scale ADC
// conversion — what a saturated sample reports.
func (s *SenseChannel) FullScalePower() units.Power {
	return units.Power(s.ADCFullScaleVolts / s.ResistorOhms * s.RailVolts)
}

// faultGain returns the multiplicative fault factor for one acquisition
// run: accumulated drift plus any per-run gain excursion. Called once per
// run (Measure is a one-sample run), mirroring how real chain errors move
// slowly relative to the 40 µs sampling period.
func (s *SenseChannel) faultGain() float64 {
	if s.inj.Fire(faultinject.Drift) {
		s.drift += faultinject.DriftStep
	}
	g := 1 + s.drift
	if s.inj.Fire(faultinject.Gain) {
		g *= 1 + faultinject.GainMagnitude*(2*s.inj.Uniform()-1)
	}
	return g
}

// Measure converts true instantaneous power on the rail into the power the
// DAQ would record for it: I = P/V through the resistor, drop digitized,
// and P reconstructed.
func (s *SenseChannel) Measure(truePower units.Power) units.Power {
	if truePower < 0 {
		truePower = 0
	}
	current := float64(truePower) / s.RailVolts
	drop := current * s.ResistorOhms * (1 + s.ResistorTolerance) * (1 + s.GainError)
	if s.inj != nil {
		// Injected gain/drift faults perturb the analog chain, upstream of
		// the ADC, exactly where the physical errors live.
		drop *= s.faultGain()
	}

	// ADC quantization of the drop voltage.
	lsb := s.ADCFullScaleVolts / float64(int64(1)<<s.ADCBits)
	if drop > s.ADCFullScaleVolts {
		drop = s.ADCFullScaleVolts // channel saturates
	}
	quantized := float64(int64(drop/lsb+0.5)) * lsb

	measuredI := quantized / s.ResistorOhms
	p := measuredI * s.RailVolts

	// Deterministic triangular dither.
	p += s.NoiseFloorWatts * (s.next01() - 0.5)
	if p < 0 {
		p = 0
	}
	return units.Power(p)
}

// MeasureRun measures len(out) consecutive samples of the same constant
// true power, bit-identical to calling Measure once per sample: the
// resistor/ADC chain is deterministic for a fixed input, so its quantized
// reconstruction is computed once and only the per-sample dither advances
// the channel's noise state. This is the batch fast path the DAQ uses —
// it hoists the per-sample chain setup out of the sampling loop.
func (s *SenseChannel) MeasureRun(truePower units.Power, out []units.Power) {
	if truePower < 0 {
		truePower = 0
	}
	current := float64(truePower) / s.RailVolts
	drop := current * s.ResistorOhms * (1 + s.ResistorTolerance) * (1 + s.GainError)
	if s.inj != nil {
		drop *= s.faultGain()
	}
	lsb := s.ADCFullScaleVolts / float64(int64(1)<<s.ADCBits)
	if drop > s.ADCFullScaleVolts {
		drop = s.ADCFullScaleVolts
	}
	quantized := float64(int64(drop/lsb+0.5)) * lsb
	measuredI := quantized / s.ResistorOhms
	base := measuredI * s.RailVolts
	noise := s.NoiseFloorWatts
	for i := range out {
		p := base + noise*(s.next01()-0.5)
		if p < 0 {
			p = 0
		}
		out[i] = units.Power(p)
	}
}

func (s *SenseChannel) next01() float64 {
	s.n++
	x := s.seed + s.n*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
