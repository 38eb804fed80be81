package experiments

import (
	"jvmpower/internal/analysis"
	"jvmpower/internal/component"
	"jvmpower/internal/platform"
	"jvmpower/internal/stats"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// Fig6EnergyDecomposition reproduces Figure 6: the percent of processor
// energy in each Jikes RVM component (optimizing compiler, baseline
// compiler, class loader, garbage collector) and the application, under the
// SemiSpace collector, at the suite's smallest and largest heaps. The
// paper's headline observations checked here: JVM energy reaches ~60% for
// _213_javac at 32 MB; the GC averages 37% (SpecJVM98, 32 MB) falling to
// 10% at 128 MB, and 32%→11% for DaCapo (48→128 MB).
func (r *Runner) Fig6EnergyDecomposition() error { return r.RunFigure("fig6") }

func (r *Runner) fig6Plan() (*figurePlan, error) {
	return &figurePlan{points: r.jikesMatrix([]string{"SemiSpace"}), render: r.fig6Render}, nil
}

func (r *Runner) fig6Render() error {
	p6 := platform.P6()
	r.printf("\n== Figure 6: energy decomposition, Jikes RVM + SemiSpace ==\n")

	for _, suite := range []string{workloads.SuiteSpecJVM98, workloads.SuiteDaCapo, workloads.SuiteJGF} {
		benches := r.suiteBenches(suite)
		if len(benches) == 0 {
			continue
		}
		heaps := r.JikesHeapsMB(suite)
		small, large := heaps[0], heaps[len(heaps)-1]
		for _, heap := range []int{small, large} {
			r.printf("\n%s, %d MB heap:\n", suite, heap)
			t := analysis.NewTable("Benchmark", "Opt", "Base", "CL", "GC", "App", "JVM total")
			var gcFracs []float64
			for _, b := range benches {
				res, ok, err := r.cell("fig6", Point{Bench: b, Flavor: vm.Jikes, Collector: "SemiSpace", HeapMB: heap, Platform: p6})
				if err != nil {
					return err
				}
				if !ok {
					t.AddRow(b.Name, missingCell, missingCell, missingCell, missingCell, missingCell, missingCell)
					continue
				}
				d := &res.Decomposition
				t.AddRow(b.Name,
					analysis.Pct(d.CPUEnergyFrac(component.OptCompiler)),
					analysis.Pct(d.CPUEnergyFrac(component.BaseCompiler)),
					analysis.Pct(d.CPUEnergyFrac(component.ClassLoader)),
					analysis.Pct(d.CPUEnergyFrac(component.GC)),
					analysis.Pct(d.CPUEnergyFrac(component.App)),
					analysis.Pct(d.JVMEnergyFrac()),
				)
				gcFracs = append(gcFracs, d.CPUEnergyFrac(component.GC))
			}
			if _, err := t.WriteTo(r.Out); err != nil {
				return err
			}
			r.printf("suite GC average: %s   (paper: Spec 37%%@32→10%%@128; DaCapo 32%%@48→11%%@128)\n",
				analysis.Pct(stats.Mean(gcFracs)))
		}
	}

	// Component averages across all benchmarks at the small heaps, the
	// per-component claims of Section VI-A.
	var opt, base, cl stats.Running
	var optMax, clMax float64
	var optWho, clWho string
	for _, b := range r.Benchmarks() {
		heap := r.JikesHeapsMB(b.Suite)[0]
		res, ok, err := r.cell("fig6", Point{Bench: b, Flavor: vm.Jikes, Collector: "SemiSpace", HeapMB: heap, Platform: p6})
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		d := &res.Decomposition
		o, ba, c := d.CPUEnergyFrac(component.OptCompiler), d.CPUEnergyFrac(component.BaseCompiler), d.CPUEnergyFrac(component.ClassLoader)
		opt.Add(o)
		base.Add(ba)
		cl.Add(c)
		if o > optMax {
			optMax, optWho = o, b.Name
		}
		if c > clMax {
			clMax, clWho = c, b.Name
		}
	}
	r.printf("\nComponent averages (smallest heaps): Base %s (paper <1%%), Opt %s max %s in %s (paper 3%%, max 7%% _222_mpegaudio), CL %s max %s in %s (paper 3%%, max 24%% fop)\n",
		analysis.Pct(base.Mean()),
		analysis.Pct(opt.Mean()), analysis.Pct(optMax), optWho,
		analysis.Pct(cl.Mean()), analysis.Pct(clMax), clWho)
	return nil
}

func (r *Runner) suiteBenches(suite string) []*workloads.Benchmark {
	var out []*workloads.Benchmark
	for _, b := range r.Benchmarks() {
		if b.Suite == suite {
			out = append(out, b)
		}
	}
	return out
}
