package experiments

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"jvmpower/internal/core"
	"jvmpower/internal/metrics"
	"jvmpower/internal/platform"
	"jvmpower/internal/supervisor"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// javacSweep is _213_javac under SemiSpace at the given heap sizes: one
// sweep group.
func javacSweep(t *testing.T, heapsMB ...int) []Point {
	t.Helper()
	b, err := workloads.ByName("_213_javac")
	if err != nil {
		t.Fatal(err)
	}
	var pts []Point
	for _, h := range heapsMB {
		pts = append(pts, Point{Bench: b, Flavor: vm.Jikes, Collector: "SemiSpace", HeapMB: h, Platform: platform.P6()})
	}
	return pts
}

// TestSweepJobsGrouping is the grouping rule: the consecutive SemiSpace
// points of a sweep share one job on every route, in-process, on a
// Supervisor's executors and under Shared flights, and every other point
// is a job of its own. Only an enabled fault plan or a point timeout, each
// per point, makes every job one point; a zero-rate plan injects nothing
// and still groups.
func TestSweepJobsGrouping(t *testing.T) {
	fop, err := workloads.ByName("fop")
	if err != nil {
		t.Fatal(err)
	}
	pts := append(javacSweep(t, 32, 64, 128), dbPoint(t),
		Point{Bench: fop, Flavor: vm.Jikes, Collector: "SemiSpace", HeapMB: 48, Platform: platform.P6()},
		Point{Bench: fop, Flavor: vm.Jikes, Collector: "SemiSpace", HeapMB: 128, Platform: platform.P6()})
	grouped, perPoint := []int{3, 1, 2}, []int{1, 1, 1, 1, 1, 1}
	for _, tc := range []struct {
		name string
		set  func(r *Runner)
		want []int
	}{
		{"in-process", func(*Runner) {}, grouped},
		{"supervisor", func(r *Runner) { r.Supervisor = new(supervisor.Supervisor) }, grouped},
		{"shared", func(r *Runner) { r.Shared = NewSharedFlights() }, grouped},
		{"zero-rate plan", func(r *Runner) { r.Faults = mustPlan(t, "drop=0,fail=0,seed=7") }, grouped},
		{"fault plan", func(r *Runner) { r.Faults = mustPlan(t, "drop=0.01,seed=7") }, perPoint},
		{"point timeout", func(r *Runner) { r.PointTimeout = time.Minute }, perPoint},
		{"supervisor and timeout", func(r *Runner) {
			r.Supervisor, r.PointTimeout = new(supervisor.Supervisor), time.Minute
		}, perPoint},
	} {
		var buf strings.Builder
		r := quickRunner(&buf)
		tc.set(r)
		var sizes []int
		for _, job := range r.sweepJobs(pts) {
			sizes = append(sizes, len(job))
		}
		if !slices.Equal(sizes, tc.want) {
			t.Errorf("%s: job sizes %v, want %v", tc.name, sizes, tc.want)
		}
	}
}

// TestSweepServesCachedMembers runs a sweep group half of whose members a
// previous runner left in the disk cache. The lockstep run must serve
// those from disk, compute the others, journal exactly one record per
// point, and give every point the result its own run gives; a third
// runner then finds every point on disk.
func TestSweepServesCachedMembers(t *testing.T) {
	dir := t.TempDir()
	sweep := javacSweep(t, 32, 48, 64, 128)
	cached := map[int]bool{32: true, 64: true}

	var b1, b2, b3, b4 strings.Builder
	first := quickRunner(&b1)
	first.CacheDir = dir
	alone := quickRunner(&b2)
	for _, p := range sweep {
		if cached[p.HeapMB] {
			if _, err := first.Run(p); err != nil {
				t.Fatal(err)
			}
		}
	}

	var journal bytes.Buffer
	r := quickRunner(&b3)
	r.CacheDir = dir
	r.Journal = metrics.NewJournal(&journal)
	if err := r.RunAll(sweep); err != nil {
		t.Fatal(err)
	}
	if err := r.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := metrics.DecodeJournal[PointEvent](&journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(sweep) {
		t.Fatalf("journal holds %d records for %d points: %+v", len(events), len(sweep), events)
	}
	seen := map[int]bool{}
	for _, ev := range events {
		want := "computed"
		if cached[ev.HeapMB] {
			want = "disk"
		}
		if seen[ev.HeapMB] || ev.Outcome != "ok" || ev.Source != want {
			t.Fatalf("record %+v: want one ok %q record per heap", ev, want)
		}
		seen[ev.HeapMB] = true
	}
	for _, p := range sweep {
		got, err := r.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := alone.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		samePoint(t, p.String(), got, want)
	}

	third := quickRunner(&b4)
	third.CacheDir = dir
	third.Metrics = metrics.NewRegistry()
	if err := third.RunAll(sweep); err != nil {
		t.Fatal(err)
	}
	if hits := third.Metrics.Counter("experiments.diskcache.hits").Value(); hits != int64(len(sweep)) {
		t.Fatalf("a rerun served %d of %d points from disk", hits, len(sweep))
	}
}

// TestSweepPanicReachesEveryWaiter is TestRunPanicRecovered for a lockstep
// run: a panic inside it must reach every member's waiters as an error
// carrying the panic, and stay cached, rather than strand them.
func TestSweepPanicReachesEveryWaiter(t *testing.T) {
	check := leakCheck(t)
	started, release := make(chan struct{}), make(chan struct{})
	orig := characterizeSweep
	characterizeSweep = func([]core.RunConfig) ([]core.Result, []error) {
		close(started)
		<-release
		panic("injected simulator bug")
	}
	t.Cleanup(func() { characterizeSweep = orig })

	var buf strings.Builder
	r := quickRunner(&buf)
	r.Metrics = metrics.NewRegistry()
	sweep := javacSweep(t, 32, 48, 64)
	runAll := make(chan error, 1)
	go func() { runAll <- r.RunAll(sweep) }()
	<-started // every member's flight is claimed before the run starts

	type outcome struct {
		p   Point
		res *core.Result
		err error
	}
	const waitersPerPoint = 2
	results := make(chan outcome, waitersPerPoint*len(sweep))
	for range waitersPerPoint {
		for _, p := range sweep {
			go func() {
				res, err := r.Run(p)
				results <- outcome{p, res, err}
			}()
		}
	}
	hits := r.Metrics.Counter("experiments.singleflight.hits")
	joinBy := time.Now().Add(30 * time.Second)
	for hits.Value() < waitersPerPoint*int64(len(sweep)) { // until every waiter has joined its flight
		if time.Now().After(joinBy) {
			close(release)
			t.Fatalf("%d of %d waiters joined the claimed flights", hits.Value(), waitersPerPoint*len(sweep))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	select {
	case err := <-runAll:
		if err != nil {
			t.Fatalf("RunAll returned %v; a panicking point must degrade, not abort", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunAll hung after a panic in its lockstep run")
	}
	for range waitersPerPoint * len(sweep) {
		select {
		case o := <-results:
			if o.res != nil || o.err == nil || !strings.Contains(o.err.Error(), "injected simulator bug") ||
				!strings.Contains(o.err.Error(), o.p.String()) {
				t.Fatalf("waiter for %s got (%v, %v), want the panic naming the point", o.p, o.res, o.err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a waiter hung after a panic in the lockstep run")
		}
	}
	for _, p := range sweep {
		if _, err := r.Run(p); err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("cached outcome of %s after the panic = %v", p, err)
		}
	}
	check()
}

// TestSweepCancelled cancels a run of lockstep sweeps midway: RunAll must
// return context.Canceled, as it does for single points, and leave no
// goroutine behind.
func TestSweepCancelled(t *testing.T) {
	check := leakCheck(t)
	var buf strings.Builder
	r := quickRunner(&buf)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.Ctx = ctx
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	if err := r.RunAll(r.jikesMatrix([]string{"SemiSpace"})); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAll cancelled mid-sweep returned %v, want context.Canceled", err)
	}
	check()
}

// TestVariantFiguresShareOneRun pins how the figures that vary only what a
// meter reads characterize: dvfs makes one run per benchmark of each study
// (three static sweeps of the six operating points, two governor runs of
// three policies), and each ablation one run with a lane per setting. A
// change that forks them back into one run per variant fails here.
func TestVariantFiguresShareOneRun(t *testing.T) {
	var mu sync.Mutex
	var calls []int // lanes per call
	orig := characterizeSweep
	characterizeSweep = func(lanes []core.RunConfig) ([]core.Result, []error) {
		mu.Lock()
		calls = append(calls, len(lanes))
		mu.Unlock()
		return orig(lanes)
	}
	t.Cleanup(func() { characterizeSweep = orig })
	for _, c := range []struct {
		fig          string
		calls, lanes int
	}{
		{"dvfs", 5, 24},
		{"ablation-sampling", 1, 4},
		{"ablation-mlp", 1, 3},
	} {
		calls = nil
		var buf strings.Builder
		if err := quickRunner(&buf).RunFigure(c.fig); err != nil {
			t.Fatal(err)
		}
		lanes := 0
		for _, n := range calls {
			lanes += n
		}
		if len(calls) != c.calls || lanes != c.lanes {
			t.Errorf("%s: %d calls carrying %d lanes (%v), want %d carrying %d", c.fig, len(calls), lanes, calls, c.calls, c.lanes)
		}
	}
}
