package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"jvmpower/internal/core"
	"jvmpower/internal/metrics"
	"jvmpower/internal/platform"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// withPanickingCharacterize substitutes the characterization entry point
// with one that panics, restoring it when the test ends.
func withPanickingCharacterize(t *testing.T) {
	t.Helper()
	orig := characterizeSweep
	characterizeSweep = func([]core.RunConfig) ([]core.Result, []error) {
		panic("injected simulator bug")
	}
	t.Cleanup(func() { characterizeSweep = orig })
}

func dbPoint(t *testing.T) Point {
	t.Helper()
	b, err := workloads.ByName("_209_db")
	if err != nil {
		t.Fatal(err)
	}
	return Point{Bench: b, Flavor: vm.Jikes, Collector: "GenMS", HeapMB: 64, Platform: platform.P6()}
}

// TestRunPanicRecovered is the singleflight regression test: a panic in
// the flight owner's computation used to leave flight.ready unclosed, so
// every concurrent waiter — and every later Run for the key — blocked
// forever. Now the panic is recovered into a cached error and the channel
// closes on all paths.
func TestRunPanicRecovered(t *testing.T) {
	withPanickingCharacterize(t)
	var buf strings.Builder
	r := quickRunner(&buf)
	p := dbPoint(t)

	type outcome struct {
		res *core.Result
		err error
	}
	results := make(chan outcome, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Run(p)
			results <- outcome{res, err}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("singleflight waiters hung after a panic in the flight owner")
	}
	close(results)
	n := 0
	for o := range results {
		n++
		if o.err == nil || o.res != nil {
			t.Fatalf("waiter got (%v, %v), want a panic-derived error", o.res, o.err)
		}
		if !strings.Contains(o.err.Error(), "injected simulator bug") {
			t.Fatalf("error %q does not carry the panic value", o.err)
		}
	}
	if n != 8 {
		t.Fatalf("%d waiters returned, want 8", n)
	}
	// A later Run must see the cached error, not hang or recompute.
	if _, err := r.Run(p); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("cached outcome after panic = %v", err)
	}
}

// TestFigureOrderMatchesRegistry asserts that the order RunEverything
// walks and the lookup RunFigure uses agree: every registry entry is
// listed once and figure(name) resolves to that entry's own plan. A
// second entry under a taken name would be unreachable by RunFigure
// while RunEverything ran the first one twice.
func TestFigureOrderMatchesRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range figures {
		if seen[f.name] {
			t.Fatalf("figure registry lists %q twice", f.name)
		}
		seen[f.name] = true
		got := figure(f.name)
		if got == nil {
			t.Fatalf("figure(%q) = nil for a registered figure", f.name)
		}
		if reflect.ValueOf(got).Pointer() != reflect.ValueOf(f.plan).Pointer() {
			t.Errorf("figure(%q) does not resolve to the plan registered under it", f.name)
		}
	}
	if names := FigureNames(); len(names) != len(figures) {
		t.Errorf("FigureNames has %d names, the registry %d", len(names), len(figures))
	}
}

// TestInstrumentationDeterminism runs the same figure with and without
// metrics+journal and requires byte-identical figure output — observation
// must not perturb the measurement (the paper's own constraint, turned on
// our pipeline). It also checks the instruments actually observed the run.
func TestInstrumentationDeterminism(t *testing.T) {
	var plain strings.Builder
	rp := quickRunner(&plain)
	if err := rp.RunFigure("fig1"); err != nil {
		t.Fatal(err)
	}

	var instr strings.Builder
	var journalBuf bytes.Buffer
	ri := quickRunner(&instr)
	ri.Metrics = metrics.NewRegistry()
	ri.Journal = metrics.NewJournal(&journalBuf)
	if err := ri.RunFigure("fig1"); err != nil {
		t.Fatal(err)
	}
	if err := ri.Journal.Close(); err != nil {
		t.Fatal(err)
	}

	if plain.String() != instr.String() {
		t.Fatalf("instrumentation changed figure output:\n--- plain ---\n%s\n--- instrumented ---\n%s",
			plain.String(), instr.String())
	}

	s := ri.Metrics.Snapshot()
	completed := s.Counters["experiments.points.completed"]
	if completed < 1 {
		t.Fatalf("points.completed = %d, want ≥ 1", completed)
	}
	if s.Counters["daq.samples"] < 1 || s.Counters["daq.batches"] < 1 {
		t.Fatalf("DAQ counters not observed: %+v", s.Counters)
	}
	if s.Counters["core.characterize.runs"] < 1 {
		t.Fatalf("characterize.runs = %d", s.Counters["core.characterize.runs"])
	}
	if s.Gauges["experiments.figure.fig1.seconds"] <= 0 {
		t.Fatalf("figure wall time not recorded: %v", s.Gauges)
	}
	h := s.Histograms["experiments.point.seconds"]
	if h.Count != completed {
		t.Fatalf("point.seconds count %d != points.completed %d", h.Count, completed)
	}

	events, err := metrics.DecodeJournal[PointEvent](&journalBuf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(events)) != completed {
		t.Fatalf("journal has %d events, want one per completed point (%d)", len(events), completed)
	}
	for _, ev := range events {
		if ev.Outcome != "ok" || ev.Source != "computed" || ev.Bench == "" || ev.DurationMS <= 0 {
			t.Fatalf("malformed journal event: %+v", ev)
		}
	}
}

// TestJournalRecordsError checks a failing point is journaled with its
// error and counted, so a stalled -all run can be diagnosed post hoc.
func TestJournalRecordsError(t *testing.T) {
	withPanickingCharacterize(t)
	var buf strings.Builder
	var journalBuf bytes.Buffer
	r := quickRunner(&buf)
	r.Metrics = metrics.NewRegistry()
	r.Journal = metrics.NewJournal(&journalBuf)
	if _, err := r.Run(dbPoint(t)); err == nil {
		t.Fatal("expected error from panicking characterization")
	}
	if err := r.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics.Counter("experiments.points.errors").Value(); got != 1 {
		t.Fatalf("points.errors = %d, want 1", got)
	}
	events, err := metrics.DecodeJournal[PointEvent](&journalBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Outcome != "error" || !strings.Contains(events[0].Error, "injected simulator bug") {
		t.Fatalf("journal events = %+v", events)
	}
}

// TestDiskCacheSharedDir simulates two processes sharing -cache DIR: two
// independent runners store the same key concurrently. With the old fixed
// "<key>.tmp" temp name their writes could interleave into one file; with
// unique temp files every rename installs a complete entry, which a third
// runner must then load cleanly.
func TestDiskCacheSharedDir(t *testing.T) {
	dir := t.TempDir()
	p := dbPoint(t)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf strings.Builder
			r := quickRunner(&buf)
			r.CacheDir = dir
			if _, err := r.Run(p); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var buf strings.Builder
	reader := quickRunner(&buf)
	reader.CacheDir = dir
	reader.Metrics = metrics.NewRegistry()
	if _, err := reader.Run(p); err != nil {
		t.Fatal(err)
	}
	if hits := reader.Metrics.Counter("experiments.diskcache.hits").Value(); hits != 1 {
		t.Fatalf("diskcache.hits = %d, want 1 (entry should load from disk)", hits)
	}
}

// TestWarmRerunReportsZeroMisses: a rerun that serves every point from the
// disk cache still lists experiments.diskcache.misses in its metrics
// snapshot, at 0, beside hits for every point.
func TestWarmRerunReportsZeroMisses(t *testing.T) {
	dir := t.TempDir()
	var cold strings.Builder
	r1 := quickRunner(&cold)
	r1.CacheDir = dir
	if err := r1.RunFigure("fig6"); err != nil {
		t.Fatal(err)
	}

	var warm strings.Builder
	r2 := quickRunner(&warm)
	r2.CacheDir = dir
	r2.Metrics = metrics.NewRegistry()
	if err := r2.RunFigure("fig6"); err != nil {
		t.Fatal(err)
	}
	counters := r2.Metrics.Snapshot().Counters
	misses, ok := counters["experiments.diskcache.misses"]
	if !ok || misses != 0 {
		t.Fatalf("warm rerun snapshot: diskcache.misses = %d (listed %t), want 0 listed", misses, ok)
	}
	if hits, points := counters["experiments.diskcache.hits"], counters["experiments.points.completed"]; hits == 0 || hits != points {
		t.Fatalf("warm rerun served %d of %d points from disk", hits, points)
	}
}

// TestRunAllUtilizationMetrics checks the dispatcher's worker-utilization
// instruments line up with the work done.
func TestRunAllUtilizationMetrics(t *testing.T) {
	var buf strings.Builder
	r := quickRunner(&buf)
	r.Metrics = metrics.NewRegistry()
	pts := r.jikesMatrix([]string{"GenMS"})
	if err := r.RunAll(pts); err != nil {
		t.Fatal(err)
	}
	s := r.Metrics.Snapshot()
	if s.Gauges["experiments.workers.active"] != 0 {
		t.Fatalf("workers.active = %v after RunAll, want 0", s.Gauges["experiments.workers.active"])
	}
	if s.Gauges["experiments.workers.count"] < 1 {
		t.Fatalf("workers.count = %v", s.Gauges["experiments.workers.count"])
	}
	if s.Counters["experiments.runall.calls"] != 1 {
		t.Fatalf("runall.calls = %d", s.Counters["experiments.runall.calls"])
	}
	if s.Counters["experiments.workers.busy_ns"] <= 0 {
		t.Fatal("workers.busy_ns not accumulated")
	}
	if got := s.Counters["experiments.singleflight.misses"]; got != int64(len(pts)) {
		t.Fatalf("singleflight.misses = %d, want %d (one flight per unique point)", got, len(pts))
	}
}
