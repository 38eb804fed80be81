// Command validate checks this reproduction against the paper's published
// anchor numbers: it runs the configurations behind each quantitative claim
// in the evaluation section and reports PASS/NEAR/OFF per anchor, with the
// tolerance bands used. This is the executable form of EXPERIMENTS.md.
//
//	go run ./cmd/validate            # full-scale anchors (seconds)
//	go run ./cmd/validate -quick     # scaled-down workloads (fast, looser)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"jvmpower/internal/analysis"
	"jvmpower/internal/component"
	"jvmpower/internal/experiments"
	"jvmpower/internal/platform"
	"jvmpower/internal/stats"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

func main() {
	quick := flag.Bool("quick", false, "scaled-down workloads (fast, looser bands)")
	flag.Parse()
	if err := run(os.Stdout, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(1)
	}
}

// gcAnchorBenches are the benchmarks whose GenCopy 48 MB runs the Fig. 8
// counter and power anchors average over.
var gcAnchorBenches = []string{"_213_javac", "_209_db", "_227_mtrt"}

func run(out io.Writer, quick bool) error {
	start := time.Now()
	r := experiments.NewRunner(io.Discard)
	r.Quick = quick
	p6 := platform.P6()

	point := func(bench, col string, heap int) (experiments.Point, error) {
		b, err := workloads.ByName(bench)
		if err != nil {
			return experiments.Point{}, err
		}
		return experiments.Point{Bench: b, Flavor: vm.Jikes, Collector: col, HeapMB: heap, Platform: p6}, nil
	}
	get := func(bench, col string, heap int) (*analysis.Decomposition, error) {
		p, err := point(bench, col, heap)
		if err != nil {
			return nil, err
		}
		res, err := r.Run(p)
		if err != nil {
			return nil, err
		}
		return &res.Decomposition, nil
	}

	// Every anchor point, computed in parallel before the checks below read
	// them through get. javac's three SemiSpace heaps are adjacent, so they
	// share one lockstep run.
	type anchor struct {
		bench, col string
		heap       int
	}
	anchors := []anchor{
		{"_213_javac", "SemiSpace", 32}, {"_213_javac", "SemiSpace", 48}, {"_213_javac", "SemiSpace", 128},
		{"_213_javac", "GenMS", 32}, {"fop", "SemiSpace", 48}, {"_222_mpegaudio", "SemiSpace", 32},
		{"_209_db", "SemiSpace", 128},
	}
	for _, h := range r.JikesHeapsMB(workloads.SuiteSpecJVM98) {
		anchors = append(anchors, anchor{"_209_db", "GenCopy", h})
	}
	for _, bn := range gcAnchorBenches {
		anchors = append(anchors, anchor{bn, "GenCopy", 48})
	}
	var pts []experiments.Point
	for _, a := range anchors {
		p, err := point(a.bench, a.col, a.heap)
		if err != nil {
			return err
		}
		pts = append(pts, p)
	}
	if err := r.RunAll(pts); err != nil {
		return err
	}

	type check struct {
		name   string
		paper  string
		value  float64
		lo, hi float64
	}
	var checks []check
	add := func(name, paper string, v, lo, hi float64) {
		checks = append(checks, check{name, paper, v, lo, hi})
	}

	// --- Section VI-A / Figure 6 anchors ---
	javac32, err := get("_213_javac", "SemiSpace", 32)
	if err != nil {
		return err
	}
	add("javac@32 SemiSpace: JVM energy share", "up to 60%",
		javac32.JVMEnergyFrac(), 0.40, 0.70)
	javac128, err := get("_213_javac", "SemiSpace", 128)
	if err != nil {
		return err
	}
	add("javac SemiSpace GC share falls with heap", "37%→10% trend",
		javac32.CPUEnergyFrac(component.GC)-javac128.CPUEnergyFrac(component.GC), 0.15, 0.60)

	fop48, err := get("fop", "SemiSpace", 48)
	if err != nil {
		return err
	}
	add("fop@48: class loader energy share", "24% (max)",
		fop48.CPUEnergyFrac(component.ClassLoader), 0.15, 0.33)

	mpeg32, err := get("_222_mpegaudio", "SemiSpace", 32)
	if err != nil {
		return err
	}
	add("mpegaudio@32: opt compiler share", "7% (max)",
		mpeg32.CPUEnergyFrac(component.OptCompiler), 0.02, 0.10)
	add("javac@32: base compiler share", "<1%",
		javac32.CPUEnergyFrac(component.BaseCompiler), 0, 0.015)

	// --- Figure 7 anchors ---
	ssEDP := float64(javac32.EDP)
	gm32, err := get("_213_javac", "GenMS", 32)
	if err != nil {
		return err
	}
	add("javac@32: GenMS EDP improvement over SemiSpace", "as much as 70%",
		1-float64(gm32.EDP)/ssEDP, 0.45, 0.85)
	javac48, err := get("_213_javac", "SemiSpace", 48)
	if err != nil {
		return err
	}
	add("javac SemiSpace EDP reduction 32→48MB", "56%",
		1-float64(javac48.EDP)/ssEDP, 0.25, 0.70)
	db128ss, err := get("_209_db", "SemiSpace", 128)
	if err != nil {
		return err
	}
	bestGenCopy := float64(0)
	for i, h := range r.JikesHeapsMB(workloads.SuiteSpecJVM98) {
		d, err := get("_209_db", "GenCopy", h)
		if err != nil {
			return err
		}
		if v := float64(d.EDP); i == 0 || v < bestGenCopy {
			bestGenCopy = v
		}
	}
	add("db@128: SemiSpace EDP vs best GenCopy", "~5% better",
		1-float64(db128ss.EDP)/bestGenCopy, -0.05, 0.20)

	// --- Figure 8 / Section VI-C anchors ---
	var gcPow, gcIPC, gcL2, appIPC, appL2 stats.Running
	for _, bn := range gcAnchorBenches {
		d, err := get(bn, "GenCopy", 48)
		if err != nil {
			return err
		}
		if d.AvgPower[component.GC] > 0 {
			gcPow.Add(float64(d.AvgPower[component.GC]))
			gcIPC.Add(d.IPC(component.GC))
			gcL2.Add(d.L2MissRate(component.GC))
		}
		appIPC.Add(d.IPC(component.App))
		appL2.Add(d.L2MissRate(component.App))
	}
	add("GenCopy GC average power (W)", "12.8 W", gcPow.Mean(), 11.5, 14.0)
	add("GC IPC", "0.55", gcIPC.Mean(), 0.40, 0.75)
	add("GC L2 miss rate", "54%", gcL2.Mean(), 0.30, 0.65)
	add("App IPC", "0.8", appIPC.Mean(), 0.60, 1.00)
	// The App counter pool inherits some GC-tail attribution skew from the
	// 1 ms HPM sampling (a real artifact of the methodology), so the band
	// is wider than the paper's point estimate.
	add("App L2 miss rate", "11%", appL2.Mean(), 0.05, 0.25)
	peak, who := javac32.OverallPeak()
	add("javac@32: peak power (W)", "peak set by App, 16-18W", float64(peak), 14.5, 19)
	if who != component.App {
		add("javac@32: peak in App", "App", 0, 1, 1) // force OFF
	}

	// --- Section VI-B anchor ---
	add("javac@32: memory energy share", "~7% (Spec avg)", javac32.MemEnergyFrac(), 0.03, 0.12)

	// --- render ---
	t := analysis.NewTable("Anchor", "Paper", "Measured", "Band", "Verdict")
	pass, total := 0, 0
	for _, c := range checks {
		verdict := "OFF"
		if c.value >= c.lo && c.value <= c.hi {
			verdict = "PASS"
			pass++
		}
		total++
		t.AddRow(c.name, c.paper, fmt.Sprintf("%.3f", c.value),
			fmt.Sprintf("[%.2f, %.2f]", c.lo, c.hi), verdict)
	}
	if _, err := t.WriteTo(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "\n%d/%d anchors within band (%v)\n", pass, total, time.Since(start).Round(time.Millisecond))
	if quick {
		fmt.Fprintf(out, "note: -quick scales workloads 4x down, which shifts component shares;\n")
		fmt.Fprintf(out, "the bands target full-scale runs, so misses here are informational only.\n")
		return nil
	}
	if pass < total {
		return fmt.Errorf("%d anchors out of band", total-pass)
	}
	return nil
}
