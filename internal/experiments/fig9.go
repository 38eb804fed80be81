package experiments

import (
	"fmt"

	"jvmpower/internal/analysis"
	"jvmpower/internal/component"
	"jvmpower/internal/core"
	"jvmpower/internal/platform"
	"jvmpower/internal/stats"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
)

// Fig9Kaffe reproduces Figure 9: the energy distribution of the Kaffe
// virtual machine on the P6 platform. Claims checked (Section VI-D): the
// JVM components are far less visible than under Jikes — GC averages 7%,
// the class loader 1%, the JIT under 1%; Kaffe's mark-sweep collector
// averages ≈12.8 W, below the other components.
func (r *Runner) Fig9Kaffe() error { return r.RunFigure("fig9") }

func (r *Runner) fig9Plan() (*figurePlan, error) {
	return &figurePlan{points: r.kaffeMatrix(), render: r.fig9Render}, nil
}

func (r *Runner) fig9Render() error {
	p6 := platform.P6()
	r.printf("\n== Figure 9: Kaffe energy distribution (P6) ==\n")
	t := analysis.NewTable("Benchmark", "Heap", "JIT", "CL", "GC", "App")
	var gcFrac, clFrac, jitFrac stats.Running
	var gcPow stats.Running
	for _, b := range r.Benchmarks() {
		heaps := r.JikesHeapsMB(b.Suite)
		for _, h := range []int{heaps[0], heaps[len(heaps)-1]} {
			res, ok, err := r.cell("fig9", Point{Bench: b, Flavor: vm.Kaffe, HeapMB: h, Platform: p6})
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
		}
		// Averages over the full heap sweep.
		for _, h := range heaps {
			res, ok, err := r.cell("fig9", Point{Bench: b, Flavor: vm.Kaffe, HeapMB: h, Platform: p6})
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			d := &res.Decomposition
			gcFrac.Add(d.CPUEnergyFrac(component.GC))
			clFrac.Add(d.CPUEnergyFrac(component.ClassLoader))
			jitFrac.Add(d.CPUEnergyFrac(component.JITCompiler))
			if d.AvgPower[component.GC] > 0 {
				gcPow.Add(float64(d.AvgPower[component.GC]))
			}
		}
	}
	if _, err := t.WriteTo(r.Out); err != nil {
		return err
	}
	r.printf("\nAverages: GC %s (paper 7%%), CL %s (paper 1%%), JIT %s (paper <1%%)\n",
		analysis.Pct(gcFrac.Mean()), analysis.Pct(clFrac.Mean()), analysis.Pct(jitFrac.Mean()))
	r.printf("Kaffe mark-sweep collector average power: %v (paper: 12.8 W)\n", units.Power(gcPow.Mean()))
	return nil
}

// Fig10KaffeEDP reproduces Figure 10: Kaffe's energy-delay product on the
// P6 changes little with heap size — a consequence of the small
// performance gains Kaffe realizes from larger heaps.
func (r *Runner) Fig10KaffeEDP() error { return r.RunFigure("fig10") }

func (r *Runner) fig10Plan() (*figurePlan, error) {
	return &figurePlan{points: r.kaffeMatrix(), render: r.fig10Render}, nil
}

func (r *Runner) fig10Render() error {
	p6 := platform.P6()
	r.printf("\n== Figure 10: Kaffe energy-delay product vs heap size (P6, J·s) ==\n")
	for _, b := range r.Benchmarks() {
		heaps := r.JikesHeapsMB(b.Suite)
		header := []string{"Benchmark"}
		for _, h := range heaps {
			header = append(header, fmt.Sprintf("%dMB", h))
		}
		t := analysis.NewTable(header...)
		row := []string{b.Name}
		first, last := 0.0, 0.0
		for i, h := range heaps {
			v, err := r.cellValue("fig10", Point{Bench: b, Flavor: vm.Kaffe, HeapMB: h, Platform: p6},
				func(res *core.Result) float64 { return float64(res.Decomposition.EDP) })
			if err != nil {
				return err
			}
			if i == 0 {
				first = v
			}
			last = v
			row = append(row, fmtCell("%.3f", v))
		}
		t.AddRow(row...)
		if _, err := t.WriteTo(r.Out); err != nil {
			return err
		}
		if first > 0 && last == last {
			r.printf("  change smallest→largest heap: %s (paper: little change)\n", analysis.Pct(last/first-1))
		}
	}
	return nil
}
