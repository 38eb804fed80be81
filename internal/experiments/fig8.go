package experiments

import (
	"fmt"

	"jvmpower/internal/analysis"
	"jvmpower/internal/component"
	"jvmpower/internal/gc"
	"jvmpower/internal/platform"
	"jvmpower/internal/stats"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// Fig8Power reproduces Figure 8: average (top) and peak (bottom) power per
// component — application, garbage collector, class loader — for every
// benchmark under the GenCopy plan, plus the cross-collector power
// comparison of Section VI-C. Claims checked: the GC is the least
// power-hungry monitored component (GenCopy 12.8 W, SemiSpace 12.3 W, GenMS
// 12.7 W, MarkSweep 11.7 W on average); peak power is set by the
// application for most benchmarks, with _209_db the visible exception
// (GC-driven peak, 17.5 W); GC runs at IPC ≈0.55 with ≈54% L2 misses while
// the application runs at ≈0.8 IPC and ≈11% L2 misses.
func (r *Runner) Fig8Power() error { return r.RunFigure("fig8") }

// fig8Plan declares the whole Jikes matrix: the cross-collector table reads
// all of it, and the GenCopy table a part.
func (r *Runner) fig8Plan() (*figurePlan, error) {
	return &figurePlan{points: r.jikesMatrix(gc.PlanNames()), render: r.fig8Render}, nil
}

func (r *Runner) fig8Render() error {
	p6 := platform.P6()
	r.printf("\n== Figure 8: average and peak power per component (Jikes RVM + GenCopy) ==\n")

	t := analysis.NewTable("Benchmark", "Heap", "App avg", "GC avg", "CL avg", "App peak", "GC peak", "CL peak", "Peak set by")
	var gcPow, appPow, clPow stats.Running
	var gcIPC, appIPC, gcL2, appL2 stats.Running
	peakByApp, peakTotal := 0, 0
	for _, b := range r.Benchmarks() {
		heaps := r.JikesHeapsMB(b.Suite)
		for _, h := range []int{heaps[0], heaps[len(heaps)-1]} {
			res, ok, err := r.cell("fig8", Point{Bench: b, Flavor: vm.Jikes, Collector: "GenCopy", HeapMB: h, Platform: p6})
			if err != nil {
				return err
			}
			if !ok {
				t.AddRow(b.Name, fmt.Sprintf("%dMB", h), missingCell, missingCell,
					missingCell, missingCell, missingCell, missingCell, missingCell)
				continue
			}
			d := &res.Decomposition
			_, who := d.OverallPeak()
			t.AddRow(b.Name, fmt.Sprintf("%dMB", h),
				d.AvgPower[component.App].String(),
				d.AvgPower[component.GC].String(),
				d.AvgPower[component.ClassLoader].String(),
				d.PeakPower[component.App].String(),
				d.PeakPower[component.GC].String(),
				d.PeakPower[component.ClassLoader].String(),
				who.String(),
			)
			if p := d.AvgPower[component.GC]; p > 0 {
				gcPow.Add(float64(p))
				gcIPC.Add(d.IPC(component.GC))
				gcL2.Add(d.L2MissRate(component.GC))
			}
			appPow.Add(float64(d.AvgPower[component.App]))
			appIPC.Add(d.IPC(component.App))
			appL2.Add(d.L2MissRate(component.App))
			if p := d.AvgPower[component.ClassLoader]; p > 0 {
				clPow.Add(float64(p))
			}
			peakTotal++
			if who == component.App {
				peakByApp++
			}
		}
	}
	if _, err := t.WriteTo(r.Out); err != nil {
		return err
	}
	r.printf("\nPeak power set by the application in %d of %d configurations (paper: most, with _209_db the GC-driven exception).\n",
		peakByApp, peakTotal)
	r.printf("GenCopy GC: avg power %v, IPC %.2f, L2 miss %s (paper: 12.8 W, 0.55, 54%%)\n",
		units.Power(gcPow.Mean()), gcIPC.Mean(), analysis.Pct(gcL2.Mean()))
	r.printf("Application: avg power %v, IPC %.2f, L2 miss %s (paper: IPC ~0.8, L2 miss 11%%)\n",
		units.Power(appPow.Mean()), appIPC.Mean(), analysis.Pct(appL2.Mean()))
	r.printf("Class loader: avg power %v (paper: above GC, below application)\n", units.Power(clPow.Mean()))

	// Cross-collector average GC power, over the full Fig. 7 matrix.
	r.printf("\nAverage GC power by collector (paper: GenCopy 12.8 W, SemiSpace 12.3 W, GenMS 12.7 W, MarkSweep 11.7 W):\n")
	ct := analysis.NewTable("Collector", "Avg GC power", "Avg GC IPC", "Avg GC L2 miss")
	for _, col := range gc.PlanNames() {
		var p, ipc, l2 stats.Running
		for _, b := range r.Benchmarks() {
			for _, h := range r.JikesHeapsMB(b.Suite) {
				res, ok, err := r.cell("fig8", Point{Bench: b, Flavor: vm.Jikes, Collector: col, HeapMB: h, Platform: p6})
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				d := &res.Decomposition
				if d.AvgPower[component.GC] > 0 {
					p.Add(float64(d.AvgPower[component.GC]))
					ipc.Add(d.IPC(component.GC))
					l2.Add(d.L2MissRate(component.GC))
				}
			}
		}
		ct.AddRow(col, units.Power(p.Mean()).String(),
			fmt.Sprintf("%.2f", ipc.Mean()), analysis.Pct(l2.Mean()))
	}
	_, err := ct.WriteTo(r.Out)
	return err
}

// MemoryEnergy reproduces the Section VI-B memory-energy observation: main
// memory contributes ≈7% (SpecJVM98), 5% (DaCapo) and 8% (JGF) of total
// energy, and generational collectors consume less memory energy than
// non-generational ones.
func (r *Runner) MemoryEnergy() error { return r.RunFigure("mem") }

func (r *Runner) memPlan() (*figurePlan, error) {
	return &figurePlan{points: r.jikesMatrix([]string{"SemiSpace", "GenCopy"}), render: r.memRender}, nil
}

func (r *Runner) memRender() error {
	p6 := platform.P6()
	r.printf("\n== Section VI-B: main-memory energy share ==\n")
	t := analysis.NewTable("Suite", "Mem share (SemiSpace)", "Mem share (GenCopy)", "Paper")
	paper := map[string]string{
		workloads.SuiteSpecJVM98: "~7%",
		workloads.SuiteDaCapo:    "~5%",
		workloads.SuiteJGF:       "~8%",
	}
	for _, suite := range []string{workloads.SuiteSpecJVM98, workloads.SuiteDaCapo, workloads.SuiteJGF} {
		benches := r.suiteBenches(suite)
		if len(benches) == 0 {
			continue
		}
		var ss, gcp stats.Running
		for _, b := range benches {
			for _, h := range r.JikesHeapsMB(b.Suite) {
				for col, acc := range map[string]*stats.Running{"SemiSpace": &ss, "GenCopy": &gcp} {
					res, ok, err := r.cell("mem", Point{Bench: b, Flavor: vm.Jikes, Collector: col, HeapMB: h, Platform: p6})
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
					acc.Add(res.Decomposition.MemEnergyFrac())
				}
			}
		}
		t.AddRow(suite, analysis.Pct(ss.Mean()), analysis.Pct(gcp.Mean()), paper[suite])
	}
	_, err := t.WriteTo(r.Out)
	return err
}
