package experiments

import (
	"errors"
	"maps"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"jvmpower/internal/faultinject"
	"jvmpower/internal/metrics"
	"jvmpower/internal/platform"
	"jvmpower/internal/vm"
)

func mustPlan(t *testing.T, spec string) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	return p
}

// TestValidationRejectsBadPoints checks the typed-error boundary at
// Runner.Run: impossible inputs fail fast with *InvalidPointError before
// any simulation or caching happens.
func TestValidationRejectsBadPoints(t *testing.T) {
	var buf strings.Builder
	r := quickRunner(&buf)
	good := dbPoint(t)
	cases := map[string]func(Point) Point{
		"nil bench":         func(p Point) Point { p.Bench = nil; return p },
		"zero heap":         func(p Point) Point { p.HeapMB = 0; return p },
		"negative heap":     func(p Point) Point { p.HeapMB = -16; return p },
		"unknown collector": func(p Point) Point { p.Collector = "NoSuchGC"; return p },
		"empty platform":    func(p Point) Point { p.Platform.Name = ""; return p },
		"kaffe w/ jikes gc": func(p Point) Point { p.Flavor = vm.Kaffe; p.Collector = "GenMS"; return p },
	}
	for name, mutate := range cases {
		_, err := r.Run(mutate(good))
		var inv *InvalidPointError
		if !errors.As(err, &inv) {
			t.Errorf("%s: err = %v, want *InvalidPointError", name, err)
		}
	}
	r.mu.Lock()
	cached := len(r.cache)
	r.mu.Unlock()
	if cached != 0 {
		t.Fatalf("%d invalid points entered the cache", cached)
	}
}

// TestInvalidPointErrorsNameThePoint: an invalid point's error renders the
// point without a formatting panic, even when the field that makes it
// invalid is the one the name is built from, and names the reason.
func TestInvalidPointErrorsNameThePoint(t *testing.T) {
	r := quickRunner(&strings.Builder{})
	unknownFlavor := dbPoint(t)
	unknownFlavor.Flavor = vm.Flavor(7)
	cases := []struct {
		p    Point
		want []string
	}{
		{Point{Flavor: vm.Jikes, HeapMB: 32, Platform: platform.P6()},
			[]string{"no benchmark", noBenchmark + "/JikesRVM/default/32MB/P6"}},
		{unknownFlavor, []string{"unknown VM flavor 7", "_209_db/Flavor(7)/GenMS/64MB/P6"}},
	}
	for _, c := range cases {
		_, err := r.Run(c.p)
		var inv *InvalidPointError
		if !errors.As(err, &inv) {
			t.Fatalf("err = %v, want *InvalidPointError", err)
		}
		msg := err.Error()
		if strings.Contains(msg, "PANIC") {
			t.Errorf("error panicked while rendering the point: %s", msg)
		}
		for _, w := range c.want {
			if !strings.Contains(msg, w) {
				t.Errorf("error %q does not contain %q", msg, w)
			}
		}
	}
	// Flavor names still round-trip for the two real VMs, and an unknown
	// flavor's name parses as none.
	for _, f := range []vm.Flavor{vm.Jikes, vm.Kaffe} {
		if got, ok := flavorByName(f.String()); !ok || got != f {
			t.Errorf("flavorByName(%q) = %v, %v", f, got, ok)
		}
	}
	if _, ok := flavorByName(vm.Flavor(7).String()); ok {
		t.Error("flavorByName accepted Flavor(7)")
	}
}

// TestZeroRatePlanIsByteIdentical is the disabled-path determinism gate:
// a figure generated with no fault plan, and again with a plan whose rates
// are all zero, must produce byte-identical output at the same seed — the
// injector threading may not perturb the simulation.
func TestZeroRatePlanIsByteIdentical(t *testing.T) {
	var bare, again, zero strings.Builder
	r1 := quickRunner(&bare)
	r2 := quickRunner(&again)
	r3 := quickRunner(&zero)
	r3.Faults = mustPlan(t, "drop=0,gain=0,jitter=0,seed=99")
	for _, r := range []*Runner{r1, r2, r3} {
		if err := r.RunFigure("fig7"); err != nil {
			t.Fatal(err)
		}
	}
	if bare.String() != again.String() {
		t.Fatal("same-seed reruns differ: figure output is nondeterministic")
	}
	if bare.String() != zero.String() {
		t.Fatal("zero-rate fault plan changed figure output")
	}
	if faulted := r3.Faulted(); len(faulted) != 0 {
		t.Fatalf("zero-rate plan degraded %d points", len(faulted))
	}
}

// TestRetriesRecoverTransientFaults injects point-level transient failures
// at a high rate and checks the retry loop against the fixed budget of
// defaultRetries re-attempts: over every point the figure characterizes, a
// point degrades exactly when each of its attempts 0..defaultRetries draws
// a failure, and the retry counter equals the re-attempts those draws
// imply.
func TestRetriesRecoverTransientFaults(t *testing.T) {
	var buf strings.Builder
	r := quickRunner(&buf)
	r.Faults = mustPlan(t, "fail=0.3,seed=5")
	r.Metrics = metrics.NewRegistry()
	var mu sync.Mutex
	var keys []string
	r.OnPoint = func(p Point, _ PointEvent) {
		mu.Lock()
		keys = append(keys, p.String())
		mu.Unlock()
	}
	if err := r.RunFigure("fig7"); err != nil {
		t.Fatal(err)
	}

	wantDegraded := map[string]bool{}
	var wantRetries int64
	for _, key := range keys {
		failed := 0 // leading attempts that draw a failure
		for failed <= defaultRetries && r.Faults.PointFails(key, failed) {
			failed++
		}
		if failed > defaultRetries {
			wantDegraded[key] = true
		}
		wantRetries += int64(min(failed, defaultRetries))
	}
	if wantRetries == 0 || len(wantDegraded) == 0 {
		t.Fatalf("fail=0.3,seed=5 draws %d retries and %d exhausted points: the test no longer covers both outcomes",
			wantRetries, len(wantDegraded))
	}

	gotDegraded := map[string]bool{}
	for _, rec := range r.Faulted() {
		gotDegraded[rec.Point] = true
	}
	if !maps.Equal(gotDegraded, wantDegraded) {
		t.Fatalf("degraded points %v, want exactly those that fail attempts 0..%d: %v",
			gotDegraded, defaultRetries, wantDegraded)
	}
	if got := r.Metrics.Counter("experiments.points.retries").Value(); got != wantRetries {
		t.Fatalf("experiments.points.retries = %d, want %d", got, wantRetries)
	}
}

// TestPointTimeoutDegrades gives every attempt an impossible budget and
// checks the attempt converts the overrun into a degraded cell rather than
// a figure failure or a hang: every fault is a timeout, each counted, and
// no goroutine outlives the figure. Fig. 6's SemiSpace heaps, which RunAll
// would otherwise run in lockstep, must each time out too.
func TestPointTimeoutDegrades(t *testing.T) {
	check := leakCheck(t)
	var buf strings.Builder
	r := quickRunner(&buf)
	r.Metrics = metrics.NewRegistry()
	r.PointTimeout = time.Nanosecond
	if err := r.RunFigure("fig1"); err != nil {
		t.Fatal(err)
	}
	if err := r.RunFigure("fig6"); err != nil {
		t.Fatal(err)
	}
	faulted := r.Faulted()
	fig6 := 0
	for _, rec := range faulted {
		if rec.Figure == "fig6" {
			fig6++
		}
	}
	if want := len(r.jikesMatrix([]string{"SemiSpace"})); fig6 < want {
		t.Fatalf("1ns budget degraded %d Fig. 6 cells, want all %d points", fig6, want)
	}
	if len(faulted) == 0 {
		t.Fatal("1ns budget produced no degraded points")
	}
	for _, rec := range faulted {
		if !strings.Contains(rec.Error, "exceeded point timeout") {
			t.Errorf("fault record %+v is not a timeout", rec)
		}
	}
	if got := r.Metrics.Counter("experiments.points.timeouts").Value(); got <= 0 {
		t.Fatalf("experiments.points.timeouts = %d, want > 0", got)
	}
	if !strings.Contains(buf.String(), "figure skipped") {
		t.Fatalf("fig1 output missing degradation notice:\n%s", buf.String())
	}
	check()
}

// TestFaultCampaignAndResume is the end-to-end acceptance gate for the
// resilient pipeline: a seeded campaign of 5% DAQ sample drops plus one
// forced point panic runs RunEverything to completion — every figure
// emitted, the panicked point recorded in the fault report — and a rerun
// against the same cache reproduces it byte for byte, serving completed
// points from disk and re-attempting only the missing one.
func TestFaultCampaignAndResume(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	cacheDir := filepath.Join(dir, "points")
	const spec = "drop=0.05,seed=3,panic-point=_209_db/JikesRVM/GenMS/128MB"

	var out1 strings.Builder
	r1 := quickRunner(&out1)
	r1.CacheDir = cacheDir
	r1.Faults = mustPlan(t, spec)
	r1.Metrics = metrics.NewRegistry()
	j1, err := metrics.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	r1.Journal = j1
	if err := r1.RunEverything(); err != nil {
		t.Fatalf("campaign run failed outright: %v", err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	for _, header := range []string{
		"Figure 1", "Figure 5", "Figure 6", "Figure 7", "Figure 8",
		"Figure 9", "Figure 10", "Figure 11", "Section VI-B",
	} {
		if !strings.Contains(out1.String(), header) {
			t.Errorf("campaign output missing %q", header)
		}
	}
	faulted := r1.Faulted()
	if len(faulted) == 0 {
		t.Fatal("forced panic point missing from fault report")
	}
	foundPanic := false
	for _, f := range faulted {
		if strings.Contains(f.Point, "_209_db") && strings.Contains(f.Error, "panic") {
			foundPanic = true
		}
	}
	if !foundPanic {
		t.Fatalf("fault report lacks the injected panic: %+v", faulted)
	}
	if !strings.Contains(out1.String(), missingCell) {
		t.Fatal("figures show no degraded cells despite faults")
	}
	// points.completed counts every finished point, errored ones included;
	// the journal marks only the clean ones "ok", and only those reach the
	// cache.
	completed := r1.Metrics.Counter("experiments.points.completed").Value() -
		r1.Metrics.Counter("experiments.points.errors").Value()
	if completed == 0 {
		t.Fatal("campaign completed no points")
	}
	first, _ := readJournal(t, journalPath)
	done := make(map[PointID]bool)
	for _, ev := range first {
		if ev.Outcome == "ok" {
			done[ev.PointID] = true
		}
	}
	if int64(len(done)) != completed {
		t.Fatalf("journal recorded %d ok points, campaign completed %d", len(done), completed)
	}

	// Second run, against the same cache: completed points come from disk,
	// only the panicked point is re-attempted (and fails again — the plan
	// is unchanged — landing back in the fault report).
	var out2 strings.Builder
	r2 := quickRunner(&out2)
	r2.CacheDir = cacheDir
	r2.Faults = mustPlan(t, spec)
	r2.Metrics = metrics.NewRegistry()
	rerunPath := filepath.Join(dir, "rerun.jsonl")
	j2, err := metrics.OpenJournal(rerunPath)
	if err != nil {
		t.Fatal(err)
	}
	r2.Journal = j2
	if err := r2.RunEverything(); err != nil {
		t.Fatalf("rerun failed: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if out2.String() != out1.String() {
		t.Fatal("rerun output differs from the campaign's")
	}
	if hits := r2.Metrics.Counter("experiments.diskcache.hits").Value(); hits != completed {
		t.Fatalf("rerun served %d points from disk, campaign completed %d", hits, completed)
	}
	if len(r2.Faulted()) == 0 {
		t.Fatal("rerun did not re-attempt the missing point")
	}
	// Only the still-failing point should have been recomputed: every disk
	// miss in the rerun must correspond to an errored attempt.
	misses := r2.Metrics.Counter("experiments.diskcache.misses").Value()
	errs := r2.Metrics.Counter("experiments.points.errors").Value()
	if errs == 0 || misses != errs {
		t.Fatalf("rerun recomputed %d points but only %d errored", misses, errs)
	}
	// The rerun's journal says the same: a point is a "disk" record exactly
	// when the campaign journaled it ok.
	rerun, _ := readJournal(t, rerunPath)
	for _, ev := range rerun {
		if (ev.Source == "disk") != done[ev.PointID] {
			t.Errorf("rerun journaled %s with source %q; campaign journaled it ok: %v", ev.PointID, ev.Source, done[ev.PointID])
		}
	}
}
