package experiments

import (
	"fmt"

	"jvmpower/internal/analysis"
	"jvmpower/internal/core"
	"jvmpower/internal/gc"
	"jvmpower/internal/platform"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// Fig7EDP reproduces Figure 7: total-benchmark energy-delay product as a
// function of heap size, for all benchmarks under all four Jikes RVM
// collectors. The claims checked against the paper:
//
//   - generational plans have the best EDP, by up to ~70% over SemiSpace
//     for _213_javac at 32 MB;
//   - non-generational plans close the gap as the heap grows, and for
//     _209_db at 128 MB SemiSpace actually beats the best GenCopy point by
//     ~5% (mutator locality vs write-barrier overhead);
//   - SemiSpace's EDP falls steeply from 32→48 MB (56%/50%/27% for
//     _213_javac/_227_mtrt/euler) where GenCopy's barely moves (20%/2%/3%).
func (r *Runner) Fig7EDP() error { return r.RunFigure("fig7") }

// edpDropBenches are the benchmarks whose EDP drop from the first heap of
// the sweep to the second the headline compares. _227_mtrt is outside the
// quick set, so the plan adds these points to the matrix, SemiSpace's pair
// first so that it shares one run. The headline's other comparisons read
// _213_javac and _209_db, which every benchmark set has.
var edpDropBenches = []string{"_213_javac", "_227_mtrt", "euler"}

func (r *Runner) fig7Plan() (*figurePlan, error) {
	p6 := platform.P6()
	pts := r.jikesMatrix(gc.PlanNames())
	for _, name := range edpDropBenches {
		b, err := workloads.ByName(name)
		if err != nil {
			continue
		}
		heaps := r.JikesHeapsMB(b.Suite)
		if len(heaps) < 2 {
			continue
		}
		for _, col := range []string{"SemiSpace", "GenCopy"} {
			for _, h := range heaps[:2] {
				pts = append(pts, Point{Bench: b, Flavor: vm.Jikes, Collector: col, HeapMB: h, Platform: p6})
			}
		}
	}
	return &figurePlan{points: pts, render: r.fig7Render}, nil
}

func (r *Runner) fig7Render() error {
	p6 := platform.P6()
	r.printf("\n== Figure 7: energy-delay product vs heap size (Jikes RVM, J·s) ==\n")

	// A degraded point yields NaN, rendered as the missing-cell mark; only
	// abortive errors surface.
	edp := func(b *workloads.Benchmark, col string, heap int) (float64, error) {
		return r.cellValue("fig7", Point{Bench: b, Flavor: vm.Jikes, Collector: col, HeapMB: heap, Platform: p6},
			func(res *core.Result) float64 { return float64(res.Decomposition.EDP) })
	}

	for _, b := range r.Benchmarks() {
		heaps := r.JikesHeapsMB(b.Suite)
		header := []string{"Collector"}
		for _, h := range heaps {
			header = append(header, fmt.Sprintf("%dMB", h))
		}
		t := analysis.NewTable(header...)
		for _, col := range gc.PlanNames() {
			row := []string{col}
			for _, h := range heaps {
				v, err := edp(b, col, h)
				if err != nil {
					return err
				}
				row = append(row, fmtCell("%.3f", v))
			}
			t.AddRow(row...)
		}
		r.printf("\n%s:\n", b.Name)
		if _, err := t.WriteTo(r.Out); err != nil {
			return err
		}
	}

	// Headline comparisons.
	r.printf("\nHeadline comparisons:\n")
	if b, err := workloads.ByName("_213_javac"); err == nil {
		h := r.JikesHeapsMB(b.Suite)[0]
		ss, err1 := edp(b, "SemiSpace", h)
		gm, err2 := edp(b, "GenMS", h)
		if err1 == nil && err2 == nil && ss > 0 && gm == gm {
			r.printf("  _213_javac @%dMB: GenMS improves EDP over SemiSpace by %s (paper: as much as 70%%)\n",
				h, analysis.Pct(1-gm/ss))
		}
	}
	if b, err := workloads.ByName("_209_db"); err == nil {
		heaps := r.JikesHeapsMB(b.Suite)
		big := heaps[len(heaps)-1]
		ss, err1 := edp(b, "SemiSpace", big)
		bestGC := 0.0
		var err3 error
		for i, h := range heaps {
			v, e := edp(b, "GenCopy", h)
			if e != nil {
				err3 = e
				break
			}
			if v != v {
				continue // degraded point: best-of over the survivors
			}
			if i == 0 || bestGC == 0 || v < bestGC {
				bestGC = v
			}
		}
		if err1 == nil && err3 == nil && bestGC > 0 && ss == ss {
			r.printf("  _209_db @%dMB: SemiSpace vs best GenCopy point: %s better (paper: ~5%% better)\n",
				big, analysis.Pct(1-ss/bestGC))
		}
	}
	for _, name := range edpDropBenches {
		b, err := workloads.ByName(name)
		if err != nil {
			continue
		}
		heaps := r.JikesHeapsMB(b.Suite)
		if len(heaps) < 2 {
			continue
		}
		h0, h1 := heaps[0], heaps[1]
		ss0, e1 := edp(b, "SemiSpace", h0)
		ss1, e2 := edp(b, "SemiSpace", h1)
		gc0, e3 := edp(b, "GenCopy", h0)
		gc1, e4 := edp(b, "GenCopy", h1)
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil ||
			!(ss0 > 0) || !(gc0 > 0) || ss1 != ss1 || gc1 != gc1 {
			continue
		}
		r.printf("  %s %d→%dMB EDP reduction: SemiSpace %s, GenCopy %s (paper: 56/50/27%% vs 20/2/3%% for javac/mtrt/euler)\n",
			name, h0, h1, analysis.Pct(1-ss1/ss0), analysis.Pct(1-gc1/gc0))
	}
	return nil
}
