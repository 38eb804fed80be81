package experiments

import (
	"fmt"

	"jvmpower/internal/analysis"
	"jvmpower/internal/component"
	"jvmpower/internal/core"
	"jvmpower/internal/platform"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// DVFS implements the paper's first direction of future work (Section VII):
// "Dynamic voltage and frequency scaling on real systems is a very
// effective tool in leveraging energy for performance." Two studies:
//
//  1. A static frequency sweep across the Pentium M's SpeedStep operating
//     points for a compute-bound, a pointer-chasing, and an
//     allocation-heavy benchmark: memory-bound workloads lose little time
//     at lower points while power falls superlinearly (f·V²), so their EDP
//     improves; compute-bound workloads stretch linearly and theirs
//     degrades.
//
//  2. A component-aware governor: run only the garbage collector at a low
//     operating point (GC is the stall-heavy, lowest-IPC component of
//     Section VI-C) and leave the application at nominal speed.
func (r *Runner) DVFS() error {
	benches := []string{"_222_mpegaudio", "_209_db", "_213_javac"}
	governed := []string{"_213_javac", "_209_db"}
	governors := []struct {
		label  string
		policy func(component.ID) float64
	}{
		{"nominal", nil},
		{"GC @ 1.0 GHz", core.GCLowFrequencyPolicy(0.625)},
		{"GC @ 600 MHz", core.GCLowFrequencyPolicy(0.375)},
	}
	p6 := platform.P6()

	// One batch: the static sweep's runs first, benchmark-major, then the
	// governor study's.
	type run struct {
		bench     string
		collector string
		heapMB    int
		policy    func(component.ID) float64
	}
	var runs []run
	for _, name := range benches {
		for _, p := range p6.DVFS.Points {
			var policy func(component.ID) float64
			if op := p.FreqScale; op != 1.0 {
				policy = func(component.ID) float64 { return op }
			}
			runs = append(runs, run{name, "GenCopy", 64, policy})
		}
	}
	sweep := len(runs)
	for _, name := range governed {
		for _, gov := range governors {
			runs = append(runs, run{name, "SemiSpace", 32, gov.policy})
		}
	}
	decs := make([]analysis.Decomposition, len(runs))
	err := r.dispatch(len(runs), func(i int) error {
		bench, err := workloads.ByName(runs[i].bench)
		if err != nil {
			return err
		}
		cfg := r.runConfig(Point{Bench: bench, Flavor: vm.Jikes, Collector: runs[i].collector,
			HeapMB: runs[i].heapMB, Platform: p6})
		cfg.DVFSPolicy = runs[i].policy
		res, err := core.Characterize(cfg)
		decs[i] = res.Decomposition
		return err
	})
	if err != nil {
		return err
	}

	r.printf("\n== Extension (Sec. VII): DVFS on the Pentium M ==\n")
	r.printf("\nStatic frequency sweep (Jikes + GenCopy, 64 MB):\n\n")
	t := analysis.NewTable("Benchmark", "Point", "Time", "Energy", "EDP", "vs nominal EDP")
	for b, name := range benches {
		var base float64
		for j, p := range p6.DVFS.Points {
			d := &decs[b*len(p6.DVFS.Points)+j]
			edp := float64(d.EDP)
			if p.FreqScale == 1.0 {
				base = edp
			}
			delta := "-"
			if base > 0 && p.FreqScale != 1.0 {
				delta = fmt.Sprintf("%+.1f%%", (edp/base-1)*100)
			}
			t.AddRow(name,
				fmt.Sprintf("%.0f MHz / %.2f V", p.FreqScale*p6.CPU.ClockHz/1e6, p.Volts),
				d.TotalTime.Round(1e6).String(),
				d.TotalEnergy.String(),
				fmt.Sprintf("%.3f", edp),
				delta)
		}
	}
	if _, err := t.WriteTo(r.Out); err != nil {
		return err
	}

	r.printf("\nComponent-aware governor: GC at a reduced point, application at nominal\n(_213_javac and _209_db, 32 MB, where GC is a large energy share):\n\n")
	gt := analysis.NewTable("Benchmark", "Governor", "Time", "Energy", "EDP", "GC power")
	for b, name := range governed {
		for j, gov := range governors {
			d := &decs[sweep+b*len(governors)+j]
			gt.AddRow(name, gov.label,
				d.TotalTime.Round(1e6).String(),
				d.TotalEnergy.String(),
				fmt.Sprintf("%.3f", float64(d.EDP)),
				d.AvgPower[component.GC].String())
		}
	}
	if _, err := gt.WriteTo(r.Out); err != nil {
		return err
	}
	r.printf("\nThe collector's stall-heavy phases absorb the frequency cut: its power\ndrops sharply while total time moves far less than the clock ratio.\n")
	return nil
}
