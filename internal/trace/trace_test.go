package trace

import (
	"strings"
	"testing"
	"time"

	"jvmpower/internal/component"
	"jvmpower/internal/daq"
	"jvmpower/internal/units"
)

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	samples := []daq.Sample{
		{Time: 40 * time.Microsecond, CPU: 12.5, Mem: 0.5, Component: component.GC},
		{Time: 80 * time.Microsecond, CPU: 14.0, Mem: 0.6, Component: component.App},
	}
	if err := WriteCSV(&b, samples); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "time_us,") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "GC") || !strings.Contains(lines[2], "App") {
		t.Fatalf("rows:\n%s", out)
	}
}

func TestWindow(t *testing.T) {
	var samples []daq.Sample
	// 50 samples at 40 µs = 2 ms; 1 ms windows → at least 2 windows, the
	// first all-App at 14 W, the last all-GC at 12 W.
	for i := 0; i < 50; i++ {
		id := component.App
		p := units.Power(14)
		if i >= 25 {
			id = component.GC
			p = 12
		}
		samples = append(samples, daq.Sample{
			Time:      time.Duration(i+1) * 40 * time.Microsecond,
			CPU:       p,
			Component: id,
		})
	}
	pts, err := Window(samples, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 2 {
		t.Fatalf("windows = %d", len(pts))
	}
	first := pts[0]
	if first.ComponentShare[component.App] != 1 {
		t.Fatalf("first window app share %v", first.ComponentShare[component.App])
	}
	if float64(first.AvgCPU) != 14 || float64(first.PeakCPU) != 14 {
		t.Fatalf("first window power %v/%v", first.AvgCPU, first.PeakCPU)
	}
	last := pts[len(pts)-1]
	if last.ComponentShare[component.GC] != 1 {
		t.Fatalf("last window gc share %v", last.ComponentShare[component.GC])
	}
}

func TestWindowMixedShares(t *testing.T) {
	samples := []daq.Sample{
		{Time: 40 * time.Microsecond, CPU: 14, Component: component.App},
		{Time: 80 * time.Microsecond, CPU: 12, Component: component.GC},
		{Time: 120 * time.Microsecond, CPU: 16, Component: component.App},
	}
	pts, err := Window(samples, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("windows = %d", len(pts))
	}
	p := pts[0]
	if p.ComponentShare[component.App] < 0.66 || p.ComponentShare[component.GC] < 0.33 {
		t.Fatalf("shares %v", p.ComponentShare)
	}
	if float64(p.PeakCPU) != 16 {
		t.Fatalf("peak %v", p.PeakCPU)
	}
	if float64(p.AvgCPU) != 14 {
		t.Fatalf("avg %v", p.AvgCPU)
	}
}

func TestWindowRejectsBadWindow(t *testing.T) {
	if _, err := Window(nil, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestWriteWindowCSV(t *testing.T) {
	pts := []WindowPoint{{Start: 0, AvgCPU: 13, PeakCPU: 15, AvgMem: 0.5}}
	var b strings.Builder
	if err := WriteWindowCSV(&b, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "share_GC") {
		t.Fatalf("missing share columns:\n%s", b.String())
	}
}
