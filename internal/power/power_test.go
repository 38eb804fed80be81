package power

import (
	"math"
	"testing"

	"jvmpower/internal/units"
)

func testCPUModel() CPUModel {
	return CPUModel{Idle: 4.5, ActiveMax: 15.5, UtilFloor: 0.3, IPCMax: 2}
}

func TestCPUModelValidate(t *testing.T) {
	if err := testCPUModel().Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := testCPUModel()
	bad.ActiveMax = 0
	if bad.Validate() == nil {
		t.Error("zero ActiveMax accepted")
	}
	bad = testCPUModel()
	bad.UtilFloor = 1.5
	if bad.Validate() == nil {
		t.Error("UtilFloor > 1 accepted")
	}
}

func TestCPUPowerMonotonicInIPC(t *testing.T) {
	m := testCPUModel()
	prev := units.Power(0)
	for ipc := 0.0; ipc <= 2.0; ipc += 0.1 {
		p := m.Power(ipc)
		if p < prev {
			t.Fatalf("power decreased with IPC at %v", ipc)
		}
		prev = p
	}
	// Floor: even a fully-stalled core burns the utilization floor.
	if got := m.Power(0); math.Abs(float64(got)-(4.5+15.5*0.3)) > 1e-9 {
		t.Fatalf("stalled power %v", got)
	}
	// Ceiling: clamps at Idle+ActiveMax.
	if got := m.Power(10); math.Abs(float64(got)-(4.5+15.5)) > 1e-9 {
		t.Fatalf("saturated power %v", got)
	}
}

func TestMemoryModel(t *testing.T) {
	m := MemoryModel{Idle: 0.25, EnergyPerAccess: 40e-9}
	if err := m.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	p := m.Power(10e6) // 10M accesses/s
	want := 0.25 + 0.4
	if math.Abs(float64(p)-want) > 1e-12 {
		t.Fatalf("power %v, want %v", p, want)
	}
	bad := MemoryModel{Idle: -1}
	if bad.Validate() == nil {
		t.Error("negative idle accepted")
	}
}

func TestSenseChannelAccuracy(t *testing.T) {
	ch := NewSenseChannel(1.34, 0.010, 99)
	// The chain must reproduce true power within a few percent across the
	// measurement range (resistor tolerance + gain + quantization + dither).
	for _, truth := range []float64{1, 4.5, 12.8, 17.5} {
		sum, n := 0.0, 200
		for i := 0; i < n; i++ {
			sum += float64(ch.Measure(units.Power(truth)))
		}
		avg := sum / float64(n)
		if rel := math.Abs(avg-truth) / truth; rel > 0.03 {
			t.Errorf("measuring %v W: avg %v (%.1f%% error)", truth, avg, rel*100)
		}
	}
}

func TestSenseChannelDeterministic(t *testing.T) {
	a := NewSenseChannel(1.34, 0.010, 7)
	b := NewSenseChannel(1.34, 0.010, 7)
	for i := 0; i < 50; i++ {
		if a.Measure(12.5) != b.Measure(12.5) {
			t.Fatal("same-seed channels diverged")
		}
	}
}

func TestSenseChannelClampsNegative(t *testing.T) {
	ch := NewSenseChannel(1.34, 0.010, 1)
	if got := ch.Measure(-5); got < 0 {
		t.Fatalf("negative measurement %v", got)
	}
}

func TestSenseChannelSaturates(t *testing.T) {
	ch := NewSenseChannel(1.0, 1.0, 1) // 1Ω: 2 A would drop 2 V > 1 V full scale
	m := ch.Measure(2.0)
	if float64(m) > 1.1 {
		t.Fatalf("channel did not saturate: %v", m)
	}
}
