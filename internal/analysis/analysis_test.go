package analysis

import (
	"math"
	"strings"
	"testing"
	"time"

	"jvmpower/internal/component"
	"jvmpower/internal/daq"
	"jvmpower/internal/units"
)

func TestAggregator(t *testing.T) {
	period := 40 * time.Microsecond
	a := NewAggregator(period)
	for i := 0; i < 100; i++ {
		a.Sample(daq.Sample{Time: time.Duration(i) * period, CPU: 12, Mem: 0.5, Component: component.GC})
	}
	for i := 0; i < 50; i++ {
		a.Sample(daq.Sample{CPU: 14, Mem: 0.6, Component: component.App})
	}
	a.Sample(daq.Sample{CPU: 17, Mem: 0.6, Component: component.App}) // peak

	if a.Samples(component.GC) != 100 || a.Samples(component.App) != 51 {
		t.Fatalf("sample counts %d/%d", a.Samples(component.GC), a.Samples(component.App))
	}
	wantGC := 12.0 * 100 * period.Seconds()
	if got := float64(a.CPUEnergy(component.GC)); math.Abs(got-wantGC) > 1e-12 {
		t.Fatalf("GC energy %v, want %v", got, wantGC)
	}
	if got := a.AvgPower(component.GC); got != 12 {
		t.Fatalf("GC avg power %v", got)
	}
	if got := a.PeakPower(component.App); got != 17 {
		t.Fatalf("App peak %v", got)
	}
	if got := a.Time(component.GC); got != 100*period {
		t.Fatalf("GC time %v", got)
	}
	if a.AvgPower(component.ClassLoader) != 0 {
		t.Fatal("untouched component should report zero")
	}
}

func TestAggregatorPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAggregator(0)
}

func buildTestDecomposition(t *testing.T) Decomposition {
	t.Helper()
	period := time.Millisecond
	a := NewAggregator(period)
	add := func(id component.ID, n int, p units.Power) {
		for i := 0; i < n; i++ {
			a.Sample(daq.Sample{CPU: p, Mem: 0.5, Component: id})
		}
	}
	add(component.App, 600, 14)
	add(component.GC, 300, 12)
	add(component.ClassLoader, 50, 12.5)
	add(component.OptCompiler, 30, 13.5)
	add(component.BaseCompiler, 10, 13.8)
	add(component.Idle, 100, 4.5) // excluded from totals
	return Build("bench", "JikesRVM", "SemiSpace", "P6", 32, a, nil)
}

func TestBuildTotals(t *testing.T) {
	d := buildTestDecomposition(t)
	var sum units.Energy
	for id := component.ID(0); id < component.N; id++ {
		if id != component.Idle {
			sum += d.CPUEnergy[id]
		}
	}
	if math.Abs(float64(d.TotalCPUEnergy-sum)) > 1e-12 {
		t.Fatal("total CPU energy != component sum")
	}
	if d.TotalTime != 990*time.Millisecond {
		t.Fatalf("total time %v (idle must be excluded)", d.TotalTime)
	}
	if d.TotalEnergy != d.TotalCPUEnergy+d.TotalMemEnergy {
		t.Fatal("total energy mismatch")
	}
	wantEDP := float64(d.TotalEnergy) * d.TotalTime.Seconds()
	if math.Abs(float64(d.EDP)-wantEDP) > 1e-9 {
		t.Fatalf("EDP %v, want %v", d.EDP, wantEDP)
	}
}

func TestFractions(t *testing.T) {
	d := buildTestDecomposition(t)
	var total float64
	for id := component.ID(0); id < component.N; id++ {
		if id != component.Idle {
			total += d.CPUEnergyFrac(id)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("CPU energy fractions sum to %v", total)
	}
	jvm := d.JVMEnergyFrac()
	app := d.CPUEnergyFrac(component.App)
	if math.Abs(jvm+app-1) > 1e-9 {
		t.Fatalf("JVM (%v) + App (%v) != 1", jvm, app)
	}
	if d.MemEnergyFrac() <= 0 || d.MemEnergyFrac() >= 1 {
		t.Fatalf("memory fraction %v", d.MemEnergyFrac())
	}
	if d.TimeFrac(component.App) <= d.TimeFrac(component.GC) {
		t.Fatal("App ran twice as long as GC")
	}
}

func TestOverallPeak(t *testing.T) {
	d := buildTestDecomposition(t)
	p, who := d.OverallPeak()
	if who != component.App || p != 14 {
		t.Fatalf("peak %v in %v", p, who)
	}
}

func TestZeroDecomposition(t *testing.T) {
	a := NewAggregator(time.Millisecond)
	d := Build("empty", "Kaffe", "KaffeMS", "P6", 64, a, nil)
	if d.CPUEnergyFrac(component.App) != 0 || d.JVMEnergyFrac() != 0 ||
		d.MemEnergyFrac() != 0 || d.TimeFrac(component.GC) != 0 {
		t.Fatal("zero run should report zero fractions, not NaN")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("A", "BBBB", "C")
	tb.AddRow("x", "y")
	tb.AddRow("longer", "z", "w")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "-") {
		t.Fatal("missing separator row")
	}
	// Columns align: header and rows start at the same offsets.
	if strings.Index(lines[0], "BBBB") != strings.Index(lines[2], "y") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestPct(t *testing.T) {
	if Pct(0.374) != "37.4%" {
		t.Fatalf("Pct = %q", Pct(0.374))
	}
}
