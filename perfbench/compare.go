package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"jvmpower/internal/benchstat"
)

// compareMain is the same-code agreement check: it reads two sets of run
// records (results.jsonl files) and reports, per workload and end-to-end
// metric, each set's median and quartiles and whether the two sets agree
// within the bounds BENCHMARK.json fixes. It exits 0 when every pair
// agrees, 1 when one does not, and 2 on bad input or when the two sets
// come from different environments.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var sets [2][]record
	for i := range sets {
		if sets[i], err = readRecords(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	if err := sameEnvironment(sets[0], sets[1]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: refusing:", err)
		return 2
	}
	ok, err := compare(w, sp, sets[0], sets[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return recs, nil
}

// sameEnvironment refuses records from machines or builds that differ in
// platform, CPU model or parallelism (benchstat.Environment.Same).
func sameEnvironment(a, b []record) error {
	ref := a[0].Env
	for _, r := range append(append([]record(nil), a...), b...) {
		if !ref.Same(r.Env) {
			return fmt.Errorf("environments differ: %+v vs %+v", ref, r.Env)
		}
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method Python's statistics.quantiles(xs, n=4) uses ("exclusive"),
// which is how the spread bound is judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// worse is how much b is worse than a, as a share of a, for a metric where
// `better` says which direction wins; negative when b is better.
func worse(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare prints the agreement table and the per-layer count check and
// reports whether everything agrees.
func compare(w io.Writer, sp *spec, a, b []record) (bool, error) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tn\tA median [q1, q3]\tA spread\tB median [q1, q3]\tB spread\tB worse by\tM-W p\tB 95% CI\tbound\tverdict")
	agree := true
	for _, wl := range workloadNames() {
		for _, m := range sp.EndToEnd {
			va, vb := e2eValues(a, wl, m.Name), e2eValues(b, wl, m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: only one set has runs", wl, m.Name)
			}
			if m.Bound == nil {
				return false, fmt.Errorf("%s has no bound", m.Name)
			}
			bound := *m.Bound
			qa1, ma, qa3 := quartiles(va)
			qb1, mb, qb3 := quartiles(vb)
			sa, sb := spread(va), spread(vb)
			d := worse(ma, mb, m.Better)
			verdict := "agree"
			switch {
			case m.Name != "setup_s" && (sa > bound || sb > bound):
				verdict = "TOO NOISY"
			case math.Abs(d) > bound:
				verdict = "DISAGREE"
			}
			if verdict != "agree" {
				agree = false
			}
			ci := benchstat.BootstrapMedianCI(vb, 0.95, 0, 1)
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%.4g [%.4g, %.4g]\t%.1f%%\t%.4g [%.4g, %.4g]\t%.1f%%\t%+.1f%%\t%.2f\t[%.4g, %.4g]\t%.0f%%\t%s\n",
				wl, m.Name, len(va), len(vb), ma, qa1, qa3, 100*sa, mb, qb1, qb3, 100*sb, 100*d,
				benchstat.MannWhitneyP(va, vb), ci.Lo, ci.Hi, 100*bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	layers, err := loadLayers()
	if err != nil {
		return false, err
	}
	for _, msg := range countMismatches(layers, a, b) {
		agree = false
		fmt.Fprintln(w, "per-layer count differs:", msg)
	}
	return agree, nil
}

func e2eValues(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload == workload && !r.Trace {
			if v, ok := r.E2E[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// countMismatches lists the per-layer counts that layers.json marks exact
// and that differ between traced runs of the same workload and seed, in
// either set.
func countMismatches(layers map[string]layerInfo, a, b []record) []string {
	type key struct {
		workload string
		seed     uint64
	}
	var exact []string
	for n, info := range layers {
		if info.Exact {
			exact = append(exact, n)
		}
	}
	sort.Strings(exact)
	first := map[key]map[string]float64{}
	var out []string
	for _, r := range append(append([]record(nil), a...), b...) {
		if !r.Trace {
			continue
		}
		k := key{r.Workload, r.Seed}
		ref, ok := first[k]
		if !ok {
			first[k] = r.Layers
			continue
		}
		for _, n := range exact {
			if ref[n] != r.Layers[n] {
				out = append(out, fmt.Sprintf("%s seed %d %s: %v vs %v", r.Workload, r.Seed, n, ref[n], r.Layers[n]))
			}
		}
	}
	return out
}
