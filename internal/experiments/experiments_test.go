package experiments

import (
	"strings"
	"testing"

	"jvmpower/internal/platform"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

func quickRunner(buf *strings.Builder) *Runner {
	r := NewRunner(buf)
	r.Quick = true
	return r
}

func TestRunCaches(t *testing.T) {
	var buf strings.Builder
	r := quickRunner(&buf)
	b, err := workloads.ByName("_209_db")
	if err != nil {
		t.Fatal(err)
	}
	p := Point{Bench: b, Flavor: vm.Jikes, Collector: "GenMS", HeapMB: 64, Platform: platform.P6()}
	r1, err := r.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("identical points were not cached")
	}
}

func TestRunAllParallel(t *testing.T) {
	var buf strings.Builder
	r := quickRunner(&buf)
	pts := r.jikesMatrix([]string{"GenMS"})
	if len(pts) == 0 {
		t.Fatal("empty matrix")
	}
	if err := r.RunAll(pts); err != nil {
		t.Fatal(err)
	}
	// Everything is now cached; re-running costs nothing and agrees.
	for _, p := range pts {
		if _, err := r.Run(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHeapSweeps(t *testing.T) {
	var buf strings.Builder
	r := NewRunner(&buf)
	spec := r.JikesHeapsMB(workloads.SuiteSpecJVM98)
	if len(spec) != 7 || spec[0] != 32 || spec[6] != 128 {
		t.Fatalf("SpecJVM98 sweep %v (paper: 32..128 in 16MB steps)", spec)
	}
	dacapo := r.JikesHeapsMB(workloads.SuiteDaCapo)
	if dacapo[0] != 48 {
		t.Fatalf("DaCapo sweep %v should start at 48MB", dacapo)
	}
	emb := r.EmbeddedHeapsMB()
	if len(emb) != 6 || emb[0] != 12 || emb[5] != 32 {
		t.Fatalf("embedded sweep %v (paper: 12..32MB)", emb)
	}
}

// TestFigureRegistry: the registry holds the 15 figures, each name once
// (RunFigure would only ever reach the first of two), FigureNames returns
// them sorted, and an unknown name is rejected.
func TestFigureRegistry(t *testing.T) {
	names := FigureNames()
	if len(names) != 15 {
		t.Fatalf("figure registry has %d entries: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("FigureNames not sorted or %q registered twice: %v", names[i], names)
		}
	}
	var buf strings.Builder
	r := quickRunner(&buf)
	if err := r.RunFigure("zorch"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFig1Output(t *testing.T) {
	var buf strings.Builder
	r := quickRunner(&buf)
	if err := r.Fig1Thermal(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fan enabled", "Fan disabled", "throttle"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 output missing %q", want)
		}
	}
}

func TestFig5Output(t *testing.T) {
	var buf strings.Builder
	r := quickRunner(&buf)
	if err := r.Fig5Benchmarks(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"_213_javac", "fop", "euler", "SpecJVM98"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5 output missing %q", want)
		}
	}
}

func TestFig6QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("quick figure still runs dozens of simulations")
	}
	var buf strings.Builder
	r := quickRunner(&buf)
	if err := r.Fig6EnergyDecomposition(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "suite GC average") {
		t.Fatal("Fig6 missing suite averages")
	}
	if !strings.Contains(out, "JVM total") {
		t.Fatal("Fig6 missing JVM totals")
	}
}

func TestFig11QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("quick figure still runs dozens of simulations")
	}
	var buf strings.Builder
	r := quickRunner(&buf)
	if err := r.Fig11Embedded(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "PXA255") || !strings.Contains(out, "Averages: CL") {
		t.Fatalf("Fig11 output malformed:\n%s", out)
	}
}

func TestQuickBenchmarkSubset(t *testing.T) {
	var buf strings.Builder
	r := quickRunner(&buf)
	if got := len(r.Benchmarks()); got != 5 {
		t.Fatalf("quick subset has %d benchmarks", got)
	}
	r.Quick = false
	if got := len(r.Benchmarks()); got != 16 {
		t.Fatalf("full set has %d benchmarks", got)
	}
}
