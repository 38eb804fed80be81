package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"jvmpower/internal/benchstat"
	"jvmpower/internal/experiments"
	"jvmpower/internal/platform"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestBenchmarkSpec holds BENCHMARK.json to the limits its readers
// enforce, and every per-layer metric to a layers.json entry that names
// the end-to-end metrics it should move and the workloads it moves on.
func TestBenchmarkSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "command,end_to_end,paths,per_layer,run_seconds,workloads"; strings.Join(got, ",") != want {
		t.Errorf("BENCHMARK.json keys %v, want exactly %s", got, want)
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sp.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, c := range sp.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if n := len(sp.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths", n)
	}
	for _, p := range sp.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
	counts := []struct {
		what    string
		entries []specEntry
		lo, hi  int
	}{{"workloads", sp.Workloads, 2, 8}, {"end_to_end", sp.EndToEnd, 1, 16}, {"per_layer", sp.PerLayer, 1, 128}}
	seen := map[string]bool{}
	for _, c := range counts {
		if n := len(c.entries); n < c.lo || n > c.hi {
			t.Errorf("%s: %d entries, want %d..%d", c.what, n, c.lo, c.hi)
		}
		for _, e := range c.entries {
			if !nameRE.MatchString(e.Name) || seen[e.Name] {
				t.Errorf("%s: name %q is invalid or used twice", c.what, e.Name)
			}
			seen[e.Name] = true
		}
	}
	var wl []string
	for _, w := range sp.Workloads {
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(wl, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wl, workloadNames())
	}
	maxBound, setupBound := 0.0, -1.0
	e2e := map[string]bool{}
	for _, m := range append(append([]specEntry(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = true
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		maxBound = math.Max(maxBound, *m.Bound)
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setupBound = *m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s (unit s, lower) must exist and have the largest bound")
	}
	for _, m := range sp.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}

	layers, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	onWorkload := map[string]bool{}
	for _, w := range wl {
		onWorkload[w] = true
	}
	for _, m := range sp.PerLayer {
		info, ok := layers[m.Name]
		if !ok {
			t.Errorf("per-layer metric %s has no layers.json entry", m.Name)
			continue
		}
		if info.Layer == "" || info.MeasuredAs == "" || len(info.On) == 0 {
			t.Errorf("%s: layers.json entry needs layer, measured_as and on", m.Name)
		}
		if len(info.Moves) == 0 && info.Layer != "benchmark" {
			t.Errorf("%s: names no end-to-end metric it should move", m.Name)
		}
		for _, e := range info.Moves {
			if !e2e[e] {
				t.Errorf("%s moves %q, which is not an end-to-end metric", m.Name, e)
			}
		}
		for _, w := range info.On {
			if !onWorkload[w] {
				t.Errorf("%s moves on %q, which is not a workload", m.Name, w)
			}
		}
	}
	if len(layers) != len(sp.PerLayer) {
		t.Errorf("layers.json has %d entries, BENCHMARK.json %d per-layer metrics", len(layers), len(sp.PerLayer))
	}
}

// TestTapCoversRunProfile replays one quick point: the tap's component
// self times plus the time inside the Meter must account for the whole of
// RunProfile, and the decomposition must match core.Characterize's.
func TestTapCoversRunProfile(t *testing.T) {
	b, err := workloads.ByName("_213_javac")
	if err != nil {
		t.Fatal(err)
	}
	p := jikesPoint(b, "SemiSpace", 32)
	rp, err := replayPoint(p, true, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, d := range rp.tap.self {
		sum += d
	}
	sum += rp.tap.inside
	wall := rp.runAt.Sub(rp.vmAt)
	if diff := math.Abs(float64(sum - wall)); diff > 0.01*float64(wall) {
		t.Errorf("self times + meter = %v, RunProfile wall = %v: more than 1%% apart", sum, wall)
	}
	if rp.tap.slices == 0 || rp.tap.inside <= 0 {
		t.Errorf("tap saw %d slices, %v in the Meter", rp.tap.slices, rp.tap.inside)
	}

	tr := newTracer("test")
	o := newObserved(tr, io.Discard, true, defaultSeed)
	if _, err := o.r.Run(p); err != nil {
		t.Fatal(err)
	}
	res, err := o.r.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplay(p, res.Decomposition, rp.dec); err != nil {
		t.Error(err)
	}
}

// TestReplayCheckCatchesMismatch injects a difference into the Runner's
// cached result: the replay check must count the point as failed.
func TestReplayCheckCatchesMismatch(t *testing.T) {
	b, err := workloads.ByName("_209_db")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer("test")
	o := newObserved(tr, io.Discard, true, defaultSeed)
	p := jikesPoint(b, "SemiSpace", 32)
	res, err := o.r.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	clean := &traced{layers: map[string]float64{}}
	if _, _, err := replayLayers(clean, o, true, 1); err != nil {
		t.Fatal(err)
	}
	if clean.failed != 0 {
		t.Fatalf("clean replay failed: %v", clean.faults)
	}
	res.Decomposition.TotalEnergy *= 1 + 1e-12
	injected := &traced{layers: map[string]float64{}}
	if _, _, err := replayLayers(injected, o, true, 1); err != nil {
		t.Fatal(err)
	}
	if injected.failed != 1 || len(injected.faults) != 1 || !strings.Contains(injected.faults[0], "differs") {
		t.Errorf("injected mismatch: failed=%d faults=%v, want one failed point", injected.failed, injected.faults)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4), which judges the spread bound.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7, 1, 3}, 1, 3, 7},
		{[]float64{10.2, 9.8, 10.0, 10.4, 9.9, 10.1, 10.3, 9.7, 10.0}, 9.85, 10.0, 10.25},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(m-tc.m) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// TestSelfTimeSubtractsCoveredChildren checks the self-time rule on
// overlapping children, as parallel points produce.
func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := newTracer("test")
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("figure", 0, at(0), at(100), nil)
	tr.add("a", root, at(10), at(50), nil)
	tr.add("b", root, at(30), at(70), nil)  // overlaps a
	tr.add("c", root, at(90), at(120), nil) // runs past the parent
	if got, want := tr.selfTime(root), 30*time.Millisecond; math.Abs(float64(got-want)) > float64(time.Microsecond) {
		t.Errorf("self time %v, want %v", got, want)
	}
}

// TestCompareVerdicts runs the agreement check on synthetic record sets:
// close sets agree, a shifted set disagrees, a differing exact count is
// reported, and records from another environment are refused.
func TestCompareVerdicts(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	env := benchstat.CaptureEnvironment(nil, "")
	set := func(scale float64, slices float64) []record {
		var recs []record
		for i := 0; i < 10; i++ {
			v := scale * (1 + 0.01*float64(i%3))
			recs = append(recs, record{Workload: "quick-all-isolated", Seed: uint64(i + 1), Env: env,
				E2E: map[string]float64{"wall_s": 5.5 * v, "cpu_s": 7 * v, "peak_rss_mb": 185 * v, "setup_s": 0.005 * v}})
		}
		return append(recs, record{Workload: "quick-all-isolated", Seed: 1, Trace: true, Env: env,
			Layers: map[string]float64{"vm.slices": slices}})
	}
	for _, tc := range []struct {
		name  string
		b     []record
		agree bool
	}{
		{"same", set(1.02, 20250), true},
		{"shifted past the bound", set(1.5, 20250), false},
		{"count differs", set(1, 20251), false},
	} {
		var out strings.Builder
		got, err := compare(&out, sp, set(1, 20250), tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.agree {
			t.Errorf("%s: agree=%v, want %v\n%s", tc.name, got, tc.agree, out.String())
		}
	}
	other := set(1, 20250)
	other[0].Env.CPU = "another CPU"
	if err := sameEnvironment(set(1, 20250), other); err == nil {
		t.Error("records from another environment were not refused")
	}
}

// jikesPoint is a Jikes RVM point on the P6, the platform of Figures 6-8.
func jikesPoint(b *workloads.Benchmark, collector string, heapMB int) experiments.Point {
	return experiments.Point{Bench: b, Flavor: vm.Jikes, Collector: collector, HeapMB: heapMB, Platform: platform.P6()}
}
