package experiments

import (
	"fmt"
	"time"

	"jvmpower/internal/analysis"
	"jvmpower/internal/component"
	"jvmpower/internal/core"
	"jvmpower/internal/daq"
	"jvmpower/internal/platform"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// Dwell measures component dwell times — how long the component-ID port
// holds a value before the VM dispatches something else — validating the
// claim Section IV-D rests the 40 µs sampling window on: "typical component
// duration is hundreds of micro-seconds on our P6 system and milliseconds
// on our PXA255 system, [so] our sampling fidelity accurately captures all
// important behavior."
func (r *Runner) Dwell() error {
	runs := []struct {
		label  string
		plat   platform.Platform
		flavor vm.Flavor
		heapMB int
		s10    bool
	}{
		{"P6/Jikes", platform.P6(), vm.Jikes, 64, false},
		{"DBPXA255/Kaffe", platform.DBPXA255(), vm.Kaffe, 16, true},
	}
	dwells := make([]*analysis.DwellRecorder, len(runs))
	err := r.dispatch(len(runs), func(i int) error {
		bench, err := workloads.ByName("_213_javac")
		if err != nil {
			return err
		}
		profile := bench.Profile
		if runs[i].s10 {
			profile = workloads.S10Profile(bench)
		}
		if r.Quick {
			profile = profile.Scale(0.25)
		}
		// The recorder only observes: the run's own aggregator already
		// receives every sample, so the recorder forwards to an empty sink.
		dwell := analysis.NewDwellRecorder(daq.MultiSink{}, runs[i].plat.DAQPeriod)
		if _, err := core.Characterize(core.RunConfig{
			Platform:  runs[i].plat,
			VM:        vm.Config{Flavor: runs[i].flavor, HeapSize: units.ByteSize(runs[i].heapMB) * units.MB, Seed: r.Seed},
			Program:   bench.Program(),
			Profile:   profile,
			FanOn:     true,
			TraceSink: dwell,
			Cancel:    r.runCtx().Done(),
		}); err != nil {
			return err
		}
		dwell.Flush()
		dwells[i] = dwell
		return nil
	})
	if err != nil {
		return err
	}

	r.printf("\n== Methodology check (Sec. IV-D): component dwell times ==\n")
	t := analysis.NewTable("Platform/VM", "Component", "Mean dwell", "Max dwell", "Switches")
	for i, d := range dwells {
		for _, id := range []component.ID{component.App, component.GC, component.ClassLoader} {
			st := d.Dwell(id)
			if st.Count() == 0 {
				continue
			}
			t.AddRow(runs[i].label, id.String(),
				time.Duration(st.Mean()*float64(time.Second)).Round(time.Microsecond).String(),
				time.Duration(st.Max()*float64(time.Second)).Round(time.Microsecond).String(),
				fmt.Sprintf("%d", st.Count()))
		}
	}
	if _, err := t.WriteTo(r.Out); err != nil {
		return err
	}
	r.printf("\nPaper's premise: dwell of hundreds of µs (P6) and ms (PXA255) — both\ncomfortably above the 40 µs sampling window, so per-component attribution\nloses little. (Dwell below the window would be invisible entirely.)\n")
	return nil
}
