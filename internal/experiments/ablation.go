package experiments

import (
	"fmt"
	"time"

	"jvmpower/internal/analysis"
	"jvmpower/internal/component"
	"jvmpower/internal/core"
	"jvmpower/internal/platform"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// AblationSampling quantifies the methodology's central fidelity choice
// (Section IV-D): the paper samples power every 40 µs because typical
// component durations are hundreds of microseconds on the P6. This
// ablation re-runs one characterization at coarser sampling periods and
// reports each component's energy error against the simulator's
// ground-truth ledger — the validation a physical rig cannot perform.
func (r *Runner) AblationSampling() error {
	bench, err := workloads.ByName("_213_javac")
	if err != nil {
		return err
	}
	periods := []units.Duration{
		40 * time.Microsecond, 200 * time.Microsecond,
		1 * time.Millisecond, 5 * time.Millisecond,
	}
	rows := make([][]string, len(periods))
	err = r.dispatch(len(periods), func(i int) error {
		plat := platform.P6()
		plat.DAQPeriod = periods[i]
		cfg := r.runConfig(Point{Bench: bench, Flavor: vm.Jikes, Collector: "GenCopy", HeapMB: 48, Platform: plat})
		cfg.IdealChannels = true // isolate sampling error from chain noise
		res, err := core.Characterize(cfg)
		if err != nil {
			return err
		}
		errFor := func(id component.ID) string {
			truth := float64(res.Meter.TrueCPUEnergy(id))
			if truth == 0 {
				return "n/a"
			}
			sampled := float64(res.Decomposition.CPUEnergy[id])
			return fmt.Sprintf("%+.1f%%", (sampled/truth-1)*100)
		}
		totalTruth := float64(res.Meter.TrueTotalCPUEnergy())
		totalErr := fmt.Sprintf("%+.2f%%", (float64(res.Decomposition.TotalCPUEnergy)/totalTruth-1)*100)
		rows[i] = []string{periods[i].String(), fmt.Sprintf("%d", res.Meter.DAQSamples()),
			errFor(component.GC), errFor(component.ClassLoader),
			errFor(component.BaseCompiler), errFor(component.App), totalErr}
		return nil
	})
	if err != nil {
		return err
	}

	r.printf("\n== Ablation: DAQ sampling period vs decomposition fidelity ==\n")
	r.printf("(_213_javac, Jikes + GenCopy, 48 MB; error vs ground truth per component)\n\n")
	t := analysis.NewTable("Period", "Samples", "GC err", "CL err", "Base err", "App err", "Total err")
	for _, row := range rows {
		t.AddRow(row...)
	}
	if _, err := t.WriteTo(r.Out); err != nil {
		return err
	}
	r.printf("\nShort-lived components (Base, CL) lose attribution first as the period\n")
	r.printf("coarsens; the 40 µs choice keeps all components within a few percent.\n")
	return nil
}

// AblationMLP ablates the timing model's miss-level-parallelism dimension:
// with MLPSupport forced to zero the Pentium M stops converting the GC's
// streaming copy/sweep phases into overlapped misses, the collector's IPC
// collapses, and the measured GC power falls far below the paper's 12-13 W
// — demonstrating why the model needs the dimension to reproduce the
// paper's component power ordering.
func (r *Runner) AblationMLP() error {
	bench, err := workloads.ByName("_213_javac")
	if err != nil {
		return err
	}
	mlps := []float64{1.0, 0.5, 0.0}
	rows := make([][]string, len(mlps))
	err = r.dispatch(len(mlps), func(i int) error {
		plat := platform.P6()
		plat.CPU.MLPSupport = mlps[i]
		res, err := core.Characterize(r.runConfig(
			Point{Bench: bench, Flavor: vm.Jikes, Collector: "SemiSpace", HeapMB: 32, Platform: plat}))
		if err != nil {
			return err
		}
		d := &res.Decomposition
		rows[i] = []string{fmt.Sprintf("%.1f", mlps[i]),
			fmt.Sprintf("%.2f", d.IPC(component.GC)),
			d.AvgPower[component.GC].String(),
			fmt.Sprintf("%.2f", d.IPC(component.App)),
			d.AvgPower[component.App].String(),
			analysis.Pct(d.CPUEnergyFrac(component.GC))}
		return nil
	})
	if err != nil {
		return err
	}

	r.printf("\n== Ablation: miss-level parallelism in the timing model ==\n")
	r.printf("(_213_javac, Jikes + SemiSpace, 32 MB)\n\n")
	t := analysis.NewTable("MLPSupport", "GC IPC", "GC power", "App IPC", "App power", "GC share")
	for _, row := range rows {
		t.AddRow(row...)
	}
	if _, err := t.WriteTo(r.Out); err != nil {
		return err
	}
	r.printf("\nPaper anchors: GC IPC ≈0.55 at ≈12.3 W; App IPC ≈0.8 at ≈13.5 W.\n")
	return nil
}
