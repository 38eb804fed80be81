package experiments

import (
	"time"

	"jvmpower/internal/component"
	"jvmpower/internal/platform"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// Fig1Thermal reproduces Figure 1: die temperature of the Pentium M running
// repetitive _222_mpegaudio (Jikes RVM, generational copying collector)
// with the fan enabled versus disabled. With the fan off the die ramps to
// the 99 °C trip in roughly four minutes, engages the 50% duty-cycle
// emergency throttle, and performance halves.
//
// Method: one instrumented run establishes the workload's average package
// power; the lumped-RC thermal model then integrates back-to-back
// repetitions over seven minutes for both fan states — the thermal
// trajectory depends on the power profile, not on re-simulating the VM for
// every repetition.
func (r *Runner) Fig1Thermal() error { return r.RunFigure("fig1") }

// thermalAnchor is the one run Fig. 1 and the thermal-GC extension read:
// repetitive _222_mpegaudio under GenCopy on the Pentium M.
func thermalAnchor() (Point, error) {
	bench, err := workloads.ByName("_222_mpegaudio")
	if err != nil {
		return Point{}, err
	}
	return Point{Bench: bench, Flavor: vm.Jikes, Collector: "GenCopy", HeapMB: 64, Platform: platform.P6()}, nil
}

func (r *Runner) fig1Plan() (*figurePlan, error) {
	anchor, err := thermalAnchor()
	if err != nil {
		return nil, err
	}
	return &figurePlan{points: []Point{anchor}, render: func() error { return r.fig1Render(anchor) }}, nil
}

func (r *Runner) fig1Render(anchor Point) error {
	p6 := platform.P6()
	res, ok, err := r.cell("fig1", anchor)
	if err != nil {
		return err
	}
	if !ok {
		// The whole figure hangs off this one anchor run; without it there
		// is no power profile to integrate.
		r.printf("\n== Figure 1: Pentium M temperature, repetitive _222_mpegaudio (GenCopy) ==\n")
		r.printf("anchor point failed; figure skipped (see fault report)\n")
		return nil
	}
	d := &res.Decomposition
	loadPower := units.Power(0)
	if d.TotalTime > 0 {
		loadPower = d.TotalCPUEnergy.Over(d.TotalTime)
	}

	r.printf("\n== Figure 1: Pentium M temperature, repetitive _222_mpegaudio (GenCopy) ==\n")
	r.printf("Measured average package power under load: %v\n\n", loadPower)

	model := p6.Thermal
	type scenario struct {
		name  string
		fanOn bool
	}
	const (
		horizon = 420 * time.Second
		step    = 200 * time.Millisecond
		report  = 30 * time.Second
	)
	gated := units.Power(float64(p6.CPUPower.Idle) * 0.7)

	for _, sc := range []scenario{{"Fan enabled", true}, {"Fan disabled", false}} {
		st := model.NewState(sc.fanOn)
		r.printf("%s:\n  t(s)  temp(°C)  throttled\n", sc.name)
		var tripAt time.Duration
		next := time.Duration(0)
		for t := time.Duration(0); t <= horizon; t += step {
			if t >= next {
				mark := " "
				if st.Throttled {
					mark = "*"
				}
				r.printf("  %4.0f  %7.1f   %s\n", t.Seconds(), st.TempC, mark)
				next += report
			}
			duty := model.Duty(st)
			p := units.Power(duty*float64(loadPower) + (1-duty)*float64(gated))
			model.Step(st, p, step)
			if st.TripCount > 0 && tripAt == 0 {
				tripAt = t
			}
		}
		if tripAt > 0 {
			r.printf("  -> emergency throttle engaged at %.0f s (duty %.0f%%, clock effectively %.0f MHz)\n",
				tripAt.Seconds(), model.ThrottleDuty*100, model.ThrottleDuty*p6.CPU.ClockHz/1e6)
			r.printf("  -> throttled for %.0f s of the %.0f s window\n",
				st.Throttling.Seconds(), horizon.Seconds())
		} else {
			r.printf("  -> steady state %.1f °C, no throttling\n", model.SteadyStateC(loadPower, sc.fanOn))
		}
		r.printf("\n")
	}

	// The performance consequence the paper highlights: 50% clock duty
	// cycle proportionally halves throughput.
	appTime := d.Time[component.App]
	r.printf("Per-repetition application time: %v (fan on) vs ~%v (throttled)\n",
		appTime.Round(time.Millisecond),
		time.Duration(float64(appTime)/model.ThrottleDuty).Round(time.Millisecond))
	return nil
}
