package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"jvmpower/internal/core"
	"jvmpower/internal/metrics"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// TestPlansCoverRenders: every figure declares all of its work in its
// plan, so once the one dispatch of a RunFigures call has returned, its
// renders only read. On a fresh quick Runner, for RunEverything and for
// each registry figure alone, no characterizeSweep call, no plan job and
// no flight miss may come after the dispatch. The dispatch has returned
// once experiments.runall.calls is 1, and every flight miss settles into
// one OnPoint event, so the misses must equal the events seen before it.
// hpm-power builds its VMs by hand, so its runs are counted by its jobs.
func TestPlansCoverRenders(t *testing.T) {
	var mu sync.Mutex
	var reg *metrics.Registry // the registry of the Runner under test
	var late []string         // work noteWork saw after the dispatch returned
	noteWork := func(what string) {
		mu.Lock()
		defer mu.Unlock()
		if reg.Counter("experiments.runall.calls").Value() > 0 {
			late = append(late, what)
		}
	}
	orig := characterizeSweep
	characterizeSweep = func(lanes []core.RunConfig) ([]core.Result, []error) {
		noteWork("a characterizeSweep call")
		return orig(lanes)
	}
	saved := append(figures[:0:0], figures...)
	for i := range figures {
		plan := saved[i].plan
		figures[i].plan = func(r *Runner) (*figurePlan, error) {
			p, err := plan(r)
			if err != nil {
				return nil, err
			}
			for j, job := range p.jobs {
				p.jobs[j] = func() error {
					noteWork("a plan job")
					return job()
				}
			}
			return p, nil
		}
	}
	t.Cleanup(func() {
		characterizeSweep = orig
		copy(figures, saved)
	})

	check := func(label string, run func(*Runner) error) {
		var buf strings.Builder
		r := quickRunner(&buf)
		r.Metrics = metrics.NewRegistry()
		var points int64 // OnPoint events before the dispatch returned
		r.OnPoint = func(p Point, _ PointEvent) {
			noteWork("point " + p.String())
			mu.Lock()
			if reg.Counter("experiments.runall.calls").Value() == 0 {
				points++
			}
			mu.Unlock()
		}
		mu.Lock()
		reg, late = r.Metrics, nil
		mu.Unlock()
		if err := run(r); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(late) > 0 {
			t.Errorf("%s: its renders computed %d time(s), first %s: the plan omits work the figure reads", label, len(late), late[0])
		}
		if calls := reg.Counter("experiments.runall.calls").Value(); calls != 1 {
			t.Errorf("%s: %d dispatches, want 1", label, calls)
		}
		if misses := reg.Counter("experiments.singleflight.misses").Value(); misses != points {
			t.Errorf("%s: %d flight misses, %d of them settled before the dispatch returned", label, misses, points)
		}
	}
	check("RunEverything", (*Runner).RunEverything)
	for _, f := range saved {
		check(f.name, func(r *Runner) error { return r.RunFigure(f.name) })
	}
}

// TestAbortiveErrorStopsWhereTheFigureLoopWould: one dispatch carries every
// figure's work, yet RunEverything stops where rendering the figures one at
// a time stops. A Fig. 9 Kaffe point that fails abortively makes it return
// that error, after printing every figure before Fig. 9 exactly as an
// uninjected run prints them, and nothing after.
func TestAbortiveErrorStopsWhereTheFigureLoopWould(t *testing.T) {
	bench, err := workloads.ByName("_209_db")
	if err != nil {
		t.Fatal(err)
	}
	victim := func(lanes []core.RunConfig) bool {
		l := lanes[0]
		return l.Program == bench.Program() && l.VM.Flavor == vm.Kaffe &&
			l.Platform.Name == "P6" && l.VM.HeapSize == 128*units.MB
	}
	orig := characterizeSweep
	hits := 0
	characterizeSweep = func(lanes []core.RunConfig) ([]core.Result, []error) {
		if !victim(lanes) {
			return orig(lanes)
		}
		hits++
		errs := make([]error, len(lanes))
		for i := range errs {
			errs[i] = context.Canceled
		}
		return make([]core.Result, len(lanes)), errs
	}
	t.Cleanup(func() { characterizeSweep = orig })

	var want strings.Builder
	ref := quickRunner(&want)
	for _, f := range figures {
		if f.name == "fig9" {
			break
		}
		if err := ref.RunFigure(f.name); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
	}

	var got strings.Builder
	err = quickRunner(&got).RunEverything()
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "_209_db/Kaffe/default/128MB/P6") {
		t.Fatalf("RunEverything returned %v, want the injected context.Canceled of _209_db's Kaffe 128 MB point", err)
	}
	if hits != 1 {
		t.Fatalf("the victim point ran %d times, want 1", hits)
	}
	if got.String() != want.String() {
		t.Fatalf("RunEverything printed %d bytes, want the %d of the figures before Fig. 9:\n%s", got.Len(), want.Len(), got.String())
	}
}
