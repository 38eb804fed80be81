package experiments

import (
	"time"

	"jvmpower/internal/component"
	"jvmpower/internal/platform"
	"jvmpower/internal/units"
)

// ThermalGC evaluates the thermal-management idea the paper floats in
// Section VI-C: "by triggering garbage collection at points when the
// temperature of the processor has exceeded a safety threshold level, the
// processor executes a component with less power requirements, potentially
// giving it time to cool down to a safe level."
//
// Setup: the Figure 1 fan-failure scenario (repetitive _222_mpegaudio on
// the Pentium M). One characterization run supplies the application's and
// the collector's measured power levels; the thermal model then integrates
// ten minutes of back-to-back repetitions under three policies:
//
//   - none: run hot, trip the 99 °C emergency throttle (50% duty);
//   - thermal-GC: when the die crosses a 95 °C software threshold, schedule
//     collector work (lower power) until it cools to 90 °C;
//   - the hardware throttle alone is the baseline the paper's emergency
//     response provides.
//
// The question is throughput: emergency throttling halves the clock, while
// scheduled GC is work the program must eventually do anyway — so trading
// hot application phases for cool collector phases can deliver more
// application progress per wall-clock second under a failed fan.
func (r *Runner) ThermalGC() error { return r.RunFigure("thermal-gc") }

func (r *Runner) thermalGCPlan() (*figurePlan, error) {
	anchor, err := thermalAnchor()
	if err != nil {
		return nil, err
	}
	return &figurePlan{points: []Point{anchor}, render: func() error { return r.thermalGCRender(anchor) }}, nil
}

func (r *Runner) thermalGCRender(anchor Point) error {
	p6 := platform.P6()
	res, ok, err := r.cell("thermal-gc", anchor)
	if err != nil {
		return err
	}
	if !ok {
		r.printf("\n== Extension (Sec. VI-C): thermal-aware GC scheduling, fan disabled ==\n")
		r.printf("anchor point failed; figure skipped (see fault report)\n")
		return nil
	}
	d := &res.Decomposition

	appPower := d.AvgPower[component.App]
	gcPower := d.AvgPower[component.GC]
	gcIPC := d.IPC(component.GC)
	if gcPower <= 0 {
		// Tiny quick-mode runs may have negligible GC; use the collector
		// power the paper reports for GenCopy.
		gcPower = 12.8
		gcIPC = 0.55
	}
	// The collector's power if also scheduled at the lowest SpeedStep
	// point (the Section VII synthesis: thermal-aware scheduling + DVFS).
	lowOp := p6.DVFS.Nearest(0.375)
	gcLowPower := p6.CPUPower.PowerAt(gcIPC, p6.DVFS, lowOp)

	r.printf("\n== Extension (Sec. VI-C): thermal-aware GC scheduling, fan disabled ==\n")
	r.printf("App power %v; GC power %v at nominal, %v at %.0f MHz\n\n",
		appPower, gcPower, gcLowPower, lowOp.FreqScale*p6.CPU.ClockHz/1e6)

	model := p6.Thermal
	gated := units.Power(float64(p6.CPUPower.Idle) * 0.7)
	const (
		horizon  = 10 * time.Minute
		step     = 100 * time.Millisecond
		softTrip = 95.0
		softCool = 90.0
	)

	type outcome struct {
		name        string
		appSeconds  float64 // wall time spent making application progress
		appRate     float64 // average application progress rate (duty-weighted)
		throttled   time.Duration
		gcScheduled time.Duration
		peakC       float64
	}
	var outs []outcome

	policies := []struct {
		name    string
		gcWatts units.Power // 0: never schedule GC
		gcSpeed float64     // collector progress rate while scheduled
	}{
		{"emergency throttle only", 0, 0},
		{"thermal-aware GC", gcPower, 1.0},
		{"thermal-aware GC + DVFS", gcLowPower, lowOp.FreqScale},
	}
	for _, policy := range policies {
		st := model.NewState(false)
		var appTime, gcTime float64
		var coolMode bool
		var peak float64
		for t := time.Duration(0); t < horizon; t += step {
			duty := model.Duty(st)
			var p units.Power
			switch {
			case policy.gcWatts > 0 && (coolMode || st.TempC >= softTrip):
				// Schedule collector work until the die cools.
				coolMode = st.TempC > softCool
				p = units.Power(duty*float64(policy.gcWatts) + (1-duty)*float64(gated))
				gcTime += step.Seconds() * duty * policy.gcSpeed
			default:
				p = units.Power(duty*float64(appPower) + (1-duty)*float64(gated))
				appTime += step.Seconds() * duty
			}
			model.Step(st, p, step)
			if st.TempC > peak {
				peak = st.TempC
			}
		}
		outs = append(outs, outcome{
			name:        policy.name,
			appSeconds:  appTime,
			appRate:     appTime / horizon.Seconds(),
			throttled:   st.Throttling,
			gcScheduled: time.Duration(gcTime * float64(time.Second)),
			peakC:       peak,
		})
	}

	for _, o := range outs {
		r.printf("%-26s app progress %.0f s of %.0f s (%.0f%%), hardware-throttled %.0f s, scheduled GC %.0f s, peak %.1f °C\n",
			o.name+":", o.appSeconds, horizon.Seconds(), o.appRate*100,
			o.throttled.Seconds(), o.gcScheduled.Seconds(), o.peakC)
	}
	if len(outs) == 3 {
		plain := outs[1].appSeconds/outs[0].appSeconds - 1
		useful0 := outs[0].appSeconds
		useful2 := outs[2].appSeconds + outs[2].gcScheduled.Seconds()
		r.printf("\nAt nominal frequency the idea does NOT pay (%+.1f%% application progress):\n", plain*100)
		r.printf("the collector is only ~%.1f W cooler than the application — not enough to\n",
			float64(appPower-gcPower))
		r.printf("cool a fanless package, so the policy starves the mutator. Combined with\n")
		r.printf("DVFS, the scheduled collector genuinely cools the die: total useful work\n")
		r.printf("(app + banked GC) is %+.1f%% vs the emergency throttle, the die never\n",
			(useful2/useful0-1)*100)
		r.printf("reaches the 99 °C trip (peak %.1f °C), and the collector time is work the\n", outs[2].peakC)
		r.printf("program owed anyway — Section VI-C's idea needs its Section VII companion.\n")
	}
	return nil
}
