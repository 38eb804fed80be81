package core

import (
	"math"
	"testing"
	"time"

	"jvmpower/internal/analysis"
	"jvmpower/internal/component"
	"jvmpower/internal/cpu"
	"jvmpower/internal/platform"
	"jvmpower/internal/units"
)

func newTestMeter(t *testing.T, ideal bool) (*Meter, *analysis.Aggregator) {
	t.Helper()
	plat := platform.P6()
	agg := analysis.NewAggregator(plat.DAQPeriod)
	opts := DefaultMeterOptions(agg)
	opts.IdealChannels = ideal
	m, err := NewMeter(plat, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, agg
}

func appSlice(instr int64) cpu.Slice {
	return cpu.Slice{
		Instructions: instr,
		Reads:        instr / 3, Writes: instr / 8,
		Locality: 0.9, MLP: 1.4, WorkingSet: 1 * units.MB,
	}
}

func TestMeterRequiresSink(t *testing.T) {
	if _, err := NewMeter(platform.P6(), MeterOptions{}); err == nil {
		t.Fatal("nil sink accepted")
	}
}

func TestMeterAdvancesTimeAndEnergy(t *testing.T) {
	m, _ := newTestMeter(t, true)
	m.Execute(component.App, appSlice(10_000_000))
	if m.Now() <= 0 {
		t.Fatal("time did not advance")
	}
	if m.TrueCPUEnergy(component.App) <= 0 {
		t.Fatal("no energy recorded")
	}
	if m.TrueTime(component.App) != m.Now() {
		t.Fatal("component time should equal total for a single-component run")
	}
	if m.TrueCounters(component.App).Instructions != 10_000_000 {
		t.Fatal("counters not attributed")
	}
	if m.TruePeak(component.App) <= 0 {
		t.Fatal("no peak recorded")
	}
}

// The sampled methodology must agree with ground truth for long phases:
// this is the validation a real rig cannot do.
func TestSampledEnergyMatchesGroundTruth(t *testing.T) {
	m, agg := newTestMeter(t, true) // ideal channels isolate sampling error
	// ~40 ms of App and ~10 ms of GC in alternating 2-5 ms slices.
	for i := 0; i < 10; i++ {
		m.Execute(component.App, appSlice(8_000_000))
		m.Execute(component.GC, cpu.Slice{
			Instructions: 1_500_000, Reads: 400_000, Writes: 150_000,
			Locality: 0.68, MLP: 2, WorkingSet: 8 * units.MB,
		})
	}
	for _, id := range []component.ID{component.App, component.GC} {
		truth := float64(m.TrueCPUEnergy(id))
		sampled := float64(agg.CPUEnergy(id))
		if rel := math.Abs(sampled-truth) / truth; rel > 0.02 {
			t.Errorf("%v: sampled %.4f J vs truth %.4f J (%.2f%% off)", id, sampled, truth, rel*100)
		}
		tTruth := m.TrueTime(id).Seconds()
		tSampled := agg.Time(id).Seconds()
		if rel := math.Abs(tSampled-tTruth) / tTruth; rel > 0.02 {
			t.Errorf("%v: sampled time %.4fs vs %.4fs", id, tSampled, tTruth)
		}
	}
}

// With real sense channels the error grows but stays within a few percent.
func TestMeasurementChainError(t *testing.T) {
	m, agg := newTestMeter(t, false)
	for i := 0; i < 20; i++ {
		m.Execute(component.App, appSlice(8_000_000))
	}
	truth := float64(m.TrueCPUEnergy(component.App))
	sampled := float64(agg.CPUEnergy(component.App))
	if rel := math.Abs(sampled-truth) / truth; rel > 0.05 {
		t.Errorf("chain error %.2f%% exceeds 5%%", rel*100)
	}
}

func TestThermalIntegration(t *testing.T) {
	m, _ := newTestMeter(t, true)
	start := m.Thermal().TempC
	// A second of heavy execution warms the die by ~P·R·(1-e^(-t/τ)) with
	// τ = R·C ≈ 46 s: roughly 0.7 °C.
	for m.Now() < time.Second {
		m.Execute(component.App, appSlice(50_000_000))
	}
	rise := m.Thermal().TempC - start
	if rise < 0.3 || rise > 3 {
		t.Fatalf("die warmed %.2f °C after 1 s of load, expected ≈0.7 °C", rise)
	}
}

func TestThrottlingStretchesTime(t *testing.T) {
	plat := platform.P6()
	agg := analysis.NewAggregator(plat.DAQPeriod)
	m, err := NewMeter(plat, MeterOptions{Sink: agg, FanOn: false, IdealChannels: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Force the thermal state to the trip point.
	m.Thermal().TempC = plat.Thermal.ThrottleTripC + 0.5
	m.Execute(component.App, appSlice(1_000_000)) // engages throttle via Step
	if !m.Thermal().Throttled {
		t.Skip("thermal step released before observation; model tuning changed")
	}
	before := m.Now()
	m.Execute(component.App, appSlice(50_000_000))
	throttled := m.Now() - before

	m2, _ := newTestMeter(t, true)
	m2.Execute(component.App, appSlice(50_000_000))
	unthrottled := m2.Now()

	ratio := float64(throttled) / float64(unthrottled)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("throttled/unthrottled time ratio %.2f, want ≈2 (50%% duty)", ratio)
	}
}

func TestPortFollowsComponents(t *testing.T) {
	m, _ := newTestMeter(t, true)
	m.Execute(component.GC, appSlice(1000))
	if m.Port().Read() != component.GC {
		t.Fatal("port does not reflect the running component")
	}
	m.Execute(component.App, appSlice(1000))
	if m.Port().Read() != component.App {
		t.Fatal("port not updated on dispatch")
	}
}

func TestTotals(t *testing.T) {
	m, _ := newTestMeter(t, true)
	m.Execute(component.App, appSlice(1_000_000))
	m.Execute(component.GC, appSlice(1_000_000))
	total := m.TrueTotalCPUEnergy()
	sum := m.TrueCPUEnergy(component.App) + m.TrueCPUEnergy(component.GC)
	if math.Abs(float64(total-sum)) > 1e-12 {
		t.Fatal("total != sum of components")
	}
	if m.TrueTotalMemEnergy() <= 0 {
		t.Fatal("no memory energy")
	}
	if m.DAQSamples() == 0 {
		t.Fatal("no DAQ samples")
	}
}

func TestDVFSPolicyScalesComponent(t *testing.T) {
	plat := platform.P6()
	run := func(policy func(component.ID) float64) (gcTime time.Duration, gcEnergy, appEnergy units.Energy) {
		agg := analysis.NewAggregator(plat.DAQPeriod)
		m, err := NewMeter(plat, MeterOptions{Sink: agg, FanOn: true, Seed: 1, IdealChannels: true, DVFSPolicy: policy})
		if err != nil {
			t.Fatal(err)
		}
		gcSlice := cpu.Slice{
			Instructions: 5_000_000, Reads: 900_000, Writes: 300_000,
			Locality: 0.68, MLP: 2, WorkingSet: 8 * units.MB,
		}
		for i := 0; i < 5; i++ {
			m.Execute(component.App, appSlice(5_000_000))
			m.Execute(component.GC, gcSlice)
		}
		return m.TrueTime(component.GC), m.TrueCPUEnergy(component.GC), m.TrueCPUEnergy(component.App)
	}
	baseT, baseE, baseApp := run(nil)
	lowT, lowE, lowApp := run(GCLowFrequencyPolicy(0.375))

	if lowT <= baseT {
		t.Fatalf("GC at 600MHz not slower: %v vs %v", lowT, baseT)
	}
	// Time stretches less than the 1/0.375 clock ratio (memory-bound).
	if ratio := float64(lowT) / float64(baseT); ratio >= 1/0.375 {
		t.Fatalf("GC time ratio %.2f should be below the clock ratio %.2f", ratio, 1/0.375)
	}
	if lowE >= baseE {
		t.Fatalf("GC energy did not drop under DVFS: %v vs %v", lowE, baseE)
	}
	if appDelta := float64(lowApp-baseApp) / float64(baseApp); appDelta > 1e-9 || appDelta < -1e-9 {
		t.Fatalf("application energy changed %+.2f%% under a GC-only policy", appDelta*100)
	}
}
