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
func (r *Runner) DVFS() error { return r.RunFigure("dvfs") }

// dvfsBenches are the static sweep's benchmarks, and dvfsGoverned the
// governor study's.
var (
	dvfsBenches  = []string{"_222_mpegaudio", "_209_db", "_213_javac"}
	dvfsGoverned = []string{"_213_javac", "_209_db"}
)

// dvfsGovernors are the governor study's policies.
var dvfsGovernors = []struct {
	label  string
	policy func(component.ID) float64
}{
	{"nominal", nil},
	{"GC @ 1.0 GHz", core.GCLowFrequencyPolicy(0.625)},
	{"GC @ 600 MHz", core.GCLowFrequencyPolicy(0.375)},
}

func (r *Runner) dvfsPlan() (*figurePlan, error) {
	var govPolicies []func(component.ID) float64
	for _, gov := range dvfsGovernors {
		govPolicies = append(govPolicies, gov.policy)
	}
	p6 := platform.P6()
	var static []func(component.ID) float64
	for _, p := range p6.DVFS.Points {
		var policy func(component.ID) float64
		if op := p.FreqScale; op != 1.0 {
			policy = func(component.ID) float64 { return op }
		}
		static = append(static, policy)
	}

	// One VM run per benchmark of each study, priced through one meter per
	// policy, and each run one job: the static sweep's first, then the
	// governor study's.
	var groups [][]core.RunConfig
	add := func(name, collector string, heapMB int, policies []func(component.ID) float64) error {
		bench, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		cfg := r.runConfig(Point{Bench: bench, Flavor: vm.Jikes, Collector: collector, HeapMB: heapMB, Platform: p6})
		lanes := make([]core.RunConfig, len(policies))
		for i, policy := range policies {
			lanes[i] = cfg
			lanes[i].DVFSPolicy = policy
		}
		groups = append(groups, lanes)
		return nil
	}
	for _, name := range dvfsBenches {
		if err := add(name, "GenCopy", 64, static); err != nil {
			return nil, err
		}
	}
	for _, name := range dvfsGoverned {
		if err := add(name, "SemiSpace", 32, govPolicies); err != nil {
			return nil, err
		}
	}
	results := make([][]core.Result, len(groups))
	jobs := make([]func() error, len(groups))
	for g, lanes := range groups {
		jobs[g] = laneJob(lanes, &results[g])
	}
	return &figurePlan{jobs: jobs, render: func() error { return r.dvfsRender(results) }}, nil
}

func (r *Runner) dvfsRender(results [][]core.Result) error {
	p6 := platform.P6()
	r.printf("\n== Extension (Sec. VII): DVFS on the Pentium M ==\n")
	r.printf("\nStatic frequency sweep (Jikes + GenCopy, 64 MB):\n\n")
	t := analysis.NewTable("Benchmark", "Point", "Time", "Energy", "EDP", "vs nominal EDP")
	for b, name := range dvfsBenches {
		var base float64
		for j, p := range p6.DVFS.Points {
			d := &results[b][j].Decomposition
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
	for b, name := range dvfsGoverned {
		for j, gov := range dvfsGovernors {
			d := &results[len(dvfsBenches)+b][j].Decomposition
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
