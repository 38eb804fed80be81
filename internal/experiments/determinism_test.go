package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jvmpower/internal/core"
	"jvmpower/internal/platform"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// samePoint asserts two results for the same point are bit-identical in
// everything the figures consume. Decomposition and gc.Stats contain only
// comparable fields (scalars and fixed-size arrays), so == is a full
// bit-level comparison.
func samePoint(t *testing.T, tag string, a, b *core.Result) {
	t.Helper()
	if a.Decomposition != b.Decomposition {
		t.Fatalf("%s: decompositions differ:\n%+v\nvs\n%+v", tag, a.Decomposition, b.Decomposition)
	}
	if a.GCStats != b.GCStats {
		t.Fatalf("%s: GC stats differ: %+v vs %+v", tag, a.GCStats, b.GCStats)
	}
	if a.LoadedClasses != b.LoadedClasses {
		t.Fatalf("%s: loaded classes differ: %d vs %d", tag, a.LoadedClasses, b.LoadedClasses)
	}
}

// TestRunAllMatchesSerial runs the Fig. 6/7-style Jikes point matrix once
// serially and once through the parallel RunAll dispatcher and asserts
// every point's result is bit-identical — determinism survives concurrent
// execution. Serial Run characterizes each SemiSpace point on its own,
// while RunAll runs each benchmark's SemiSpace heaps in one lockstep run.
func TestRunAllMatchesSerial(t *testing.T) {
	var sweeps atomic.Int64
	orig := characterizeSweep
	characterizeSweep = func(lanes []core.RunConfig) ([]core.Result, []error) {
		if len(lanes) > 1 {
			sweeps.Add(1)
		}
		return orig(lanes)
	}
	t.Cleanup(func() { characterizeSweep = orig })

	var b1, b2 strings.Builder
	serial := quickRunner(&b1)
	par := quickRunner(&b2)
	pts := serial.jikesMatrix([]string{"GenCopy", "SemiSpace", "GenMS"})
	if len(pts) < 4 {
		t.Fatalf("matrix too small: %d points", len(pts))
	}
	for _, p := range pts {
		if _, err := serial.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	if n := sweeps.Load(); n != 0 {
		t.Fatalf("serial Run made %d lockstep runs", n)
	}
	if err := par.RunAll(pts); err != nil {
		t.Fatal(err)
	}
	if n, want := sweeps.Load(), int64(len(par.Benchmarks())); n != want {
		t.Fatalf("RunAll made %d lockstep runs, want one per benchmark (%d)", n, want)
	}
	for _, p := range pts {
		a, err := serial.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		samePoint(t, p.Bench.Name+"/"+p.Collector, a, b)
	}
}

// TestRunSingleflight fires concurrent Runs for one uncached point and
// asserts they all share a single computation (identical result pointer).
func TestRunSingleflight(t *testing.T) {
	var buf strings.Builder
	r := quickRunner(&buf)
	b, err := workloads.ByName("_209_db")
	if err != nil {
		t.Fatal(err)
	}
	p := Point{Bench: b, Flavor: vm.Jikes, Collector: "GenCopy", HeapMB: 64, Platform: platform.P6()}
	const n = 8
	results := make([]*core.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Run(p)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("run %d computed a separate result: singleflight failed to coalesce", i)
		}
	}
}

// TestRunAllStopsOnError feeds RunAll a long list of failing points and
// asserts it reports the failure without having dispatched the whole
// matrix: in-flight work finishes, new work stops. When two points fail,
// RunAll reports the lower-index one, which is what a serial loop would
// have stopped on, however the two finish in time.
func TestRunAllStopsOnError(t *testing.T) {
	b, err := workloads.ByName("_209_db")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("stops dispatch", func(t *testing.T) {
		var buf strings.Builder
		r := quickRunner(&buf)
		var pts []Point
		for h := 1; h <= 64; h++ {
			pts = append(pts, Point{Bench: b, Flavor: vm.Jikes, Collector: "NoSuchCollector",
				HeapMB: h, Platform: platform.P6()})
		}
		if err := r.RunAll(pts); err == nil {
			t.Fatal("RunAll succeeded on an unknown collector")
		}
		r.mu.Lock()
		attempted := len(r.cache)
		r.mu.Unlock()
		if attempted >= len(pts) {
			t.Fatalf("RunAll dispatched all %d points despite the first error", len(pts))
		}
	})
	t.Run("lowest index wins", func(t *testing.T) {
		// Point 0 fails abortively 50 ms in; point 1 is invalid and fails
		// at once on the other worker.
		orig := characterizeSweep
		characterizeSweep = func([]core.RunConfig) ([]core.Result, []error) {
			time.Sleep(50 * time.Millisecond)
			return []core.Result{{}}, []error{fmt.Errorf("point cancelled mid-run: %w", context.Canceled)}
		}
		t.Cleanup(func() { characterizeSweep = orig })
		var buf strings.Builder
		r := quickRunner(&buf)
		pts := []Point{
			{Bench: b, Flavor: vm.Jikes, Collector: "GenMS", HeapMB: 64, Platform: platform.P6()},
			{Bench: b, Flavor: vm.Jikes, Collector: "NoSuchCollector", HeapMB: 64, Platform: platform.P6()},
		}
		if err := r.RunAll(pts); !errors.Is(err, context.Canceled) {
			t.Fatalf("RunAll returned %v, want point 0's error", err)
		}
	})
}

// TestDirectFiguresOrderIndependent renders the figures that characterize
// outside Run, whose runs dispatch fans out, on one goroutine and on four:
// their text must not depend on the order the runs finish in.
func TestDirectFiguresOrderIndependent(t *testing.T) {
	render := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var buf strings.Builder
		r := quickRunner(&buf)
		for _, name := range directFigures {
			if err := r.RunFigure(name); err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", name, procs, err)
			}
		}
		return buf.String()
	}
	if serial, parallel := render(1), render(4); serial != parallel {
		t.Fatalf("figures differ between GOMAXPROCS=1 and 4:\n%s\nvs\n%s", serial, parallel)
	}
}

// TestDiskCache round-trips a point through the on-disk cache: a second
// runner sharing the directory loads instead of recomputing (signalled by
// the nil Meter) and agrees bit-for-bit, while a different seed misses.
func TestDiskCache(t *testing.T) {
	dir := t.TempDir()
	b, err := workloads.ByName("_209_db")
	if err != nil {
		t.Fatal(err)
	}
	p := Point{Bench: b, Flavor: vm.Jikes, Collector: "GenMS", HeapMB: 48, Platform: platform.P6()}

	var b1, b2, b3 strings.Builder
	r1 := quickRunner(&b1)
	r1.CacheDir = dir
	res1, err := r1.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Meter == nil {
		t.Fatal("freshly computed point has no meter")
	}

	r2 := quickRunner(&b2)
	r2.CacheDir = dir
	res2, err := r2.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Meter != nil {
		t.Fatal("second runner recomputed instead of loading from disk")
	}
	samePoint(t, "disk round-trip", res1, res2)

	r3 := quickRunner(&b3)
	r3.CacheDir = dir
	r3.Seed = 2
	res3, err := r3.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Meter == nil {
		t.Fatal("different seed hit the other seed's cache entry")
	}
}
