package experiments

import (
	"fmt"

	"jvmpower/internal/analysis"
	"jvmpower/internal/component"
	"jvmpower/internal/platform"
	"jvmpower/internal/stats"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// Fig11Embedded reproduces Figure 11 and Section VI-E: Kaffe on the Intel
// DBPXA255 board, running five SpecJVM98 benchmarks at the s10 input size
// over 12-32 MB heaps. Claims checked: the class loader becomes the
// highest-energy JVM component (average ≈18%) because Kaffe lazily loads
// its unmerged system classes through a long initialization phase; the GC
// and JIT average ≈5% each; and — unlike on the P6 — the GC is the most
// power-hungry component (≈270 mW, ~7% above the application) while the
// class loader has the lowest power (instruction-fetch stalls).
func (r *Runner) Fig11Embedded() error { return r.RunFigure("fig11") }

func (r *Runner) fig11Plan() (*figurePlan, error) {
	board := platform.DBPXA255()
	var pts []Point
	for _, b := range workloads.EmbeddedSet() {
		for _, h := range r.EmbeddedHeapsMB() {
			pts = append(pts, Point{Bench: b, Flavor: vm.Kaffe, HeapMB: h, Platform: board, S10: true})
		}
	}
	return &figurePlan{points: pts, render: r.fig11Render}, nil
}

func (r *Runner) fig11Render() error {
	board := platform.DBPXA255()
	r.printf("\n== Figure 11: Kaffe on the Intel PXA255 (s10 inputs) ==\n")
	t := analysis.NewTable("Benchmark", "Heap", "JIT", "CL", "GC", "App")
	var clFrac, gcFrac, jitFrac stats.Running
	var gcPow, appPow, clPow stats.Running
	for _, b := range workloads.EmbeddedSet() {
		for _, h := range r.EmbeddedHeapsMB() {
			res, ok, err := r.cell("fig11", Point{Bench: b, Flavor: vm.Kaffe, HeapMB: h, Platform: board, S10: true})
			if err != nil {
				return err
			}
			if !ok {
				t.AddRow(b.Name, fmt.Sprintf("%dMB", h), missingCell, missingCell, missingCell, missingCell)
				continue
			}
			d := &res.Decomposition
			t.AddRow(b.Name, fmt.Sprintf("%dMB", h),
				analysis.Pct(d.CPUEnergyFrac(component.JITCompiler)),
				analysis.Pct(d.CPUEnergyFrac(component.ClassLoader)),
				analysis.Pct(d.CPUEnergyFrac(component.GC)),
				analysis.Pct(d.CPUEnergyFrac(component.App)),
			)
			clFrac.Add(d.CPUEnergyFrac(component.ClassLoader))
			gcFrac.Add(d.CPUEnergyFrac(component.GC))
			jitFrac.Add(d.CPUEnergyFrac(component.JITCompiler))
			if p := d.AvgPower[component.GC]; p > 0 {
				gcPow.Add(float64(p))
			}
			if p := d.AvgPower[component.App]; p > 0 {
				appPow.Add(float64(p))
			}
			if p := d.AvgPower[component.ClassLoader]; p > 0 {
				clPow.Add(float64(p))
			}
		}
	}
	if _, err := t.WriteTo(r.Out); err != nil {
		return err
	}
	r.printf("\nAverages: CL %s (paper 18%%), GC %s (paper 5%%), JIT %s (paper 5%%)\n",
		analysis.Pct(clFrac.Mean()), analysis.Pct(gcFrac.Mean()), analysis.Pct(jitFrac.Mean()))
	r.printf("Average power: GC %v vs App %v (paper: GC 270 mW, ~7%% above the application); CL %v (paper: lowest)\n",
		units.Power(gcPow.Mean()), units.Power(appPow.Mean()), units.Power(clPow.Mean()))
	if appPow.Mean() > 0 {
		r.printf("GC power relative to application: %+.1f%%\n", (gcPow.Mean()/appPow.Mean()-1)*100)
	}
	return nil
}
