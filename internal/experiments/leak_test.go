package experiments

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"jvmpower/internal/core"
	"jvmpower/internal/metrics"
	"jvmpower/internal/vm"
)

// leakCheck is a goleak-style goroutine-hygiene assertion: call it before
// the work under test and invoke the returned func after. It waits for the
// goroutine count to return to the baseline — abandoned attempts are allowed
// a grace period to notice cancellation and wind down — and fails with a
// full stack dump if any goroutine outlives it.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestNoGoroutineLeakAfterRunAll exercises the three abandonment paths at
// once — per-attempt timeouts, injected faults, and mid-run cancellation —
// and asserts goroutine hygiene afterwards: no goroutine outlives the
// sweep.
func TestNoGoroutineLeakAfterRunAll(t *testing.T) {
	check := leakCheck(t)

	var buf strings.Builder
	r := quickRunner(&buf)
	r.Metrics = metrics.NewRegistry()
	r.Faults = mustPlan(t, "drop=0.05,seed=2")
	r.PointTimeout = 3 * time.Millisecond // some attempts finish, some are abandoned
	ctx, cancel := context.WithCancel(context.Background())
	r.Ctx = ctx
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel() // abandon whatever is in flight mid-run
	}()
	defer cancel()

	err := r.RunAll(r.jikesMatrix([]string{"SemiSpace"}))
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}

	check()
}

// TestTimedOutPointTerminates is the regression test for the abandoned-
// attempt leak: before cancellation was threaded into the VM's batch loop,
// a timed-out attempt kept simulating to completion as orphan work. Now a
// cancelled context must surface vm.ErrCancelled from inside the
// simulation in a small fraction of the point's full runtime — proof the
// poll actually cuts the work short between bytecode segments, not merely
// that the error is plumbed.
func TestTimedOutPointTerminates(t *testing.T) {
	var buf strings.Builder
	r := NewRunner(&buf) // full-size workload: the contrast needs a point with real runtime
	p := dbPoint(t)

	t0 := time.Now()
	if _, err := core.Characterize(r.runConfig(p)); err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first segment
	r.Ctx = ctx
	t0 = time.Now()
	_, err := core.Characterize(r.runConfig(p))
	cancelled := time.Since(t0)
	if !errors.Is(err, vm.ErrCancelled) {
		t.Fatalf("cancelled attempt returned %v, want vm.ErrCancelled", err)
	}
	if cancelled*5 > full {
		t.Fatalf("cancelled attempt took %v of a %v point: cancellation is not stopping the simulation", cancelled, full)
	}
}

// directFigures are the figures that characterize outside Run.
var directFigures = []string{"ablation-sampling", "ablation-mlp", "dvfs", "hpm-power", "dwell"}

// TestDirectFiguresHonourCancel is the regression test for Ctrl-C during
// the figures that characterize outside Run: they ignored r.Ctx, so an
// interrupted -all rendered every remaining figure and exited 0. On an
// already-cancelled context each must fail with context.Canceled; cancelled
// 20 ms into dvfs, or into a quick RunEverything, whose one dispatch
// carries every figure's work, the call must stop its in-flight
// simulations within a small fraction of its full time and leave no
// goroutine behind.
func TestDirectFiguresHonourCancel(t *testing.T) {
	t.Run("already cancelled", func(t *testing.T) {
		var buf strings.Builder
		r := quickRunner(&buf)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		r.Ctx = ctx
		for _, name := range directFigures {
			if err := r.RunFigure(name); !errors.Is(err, context.Canceled) {
				t.Errorf("%s on a cancelled context returned %v, want context.Canceled", name, err)
			}
		}
	})
	t.Run("cancelled mid-dvfs", func(t *testing.T) {
		check := leakCheck(t)
		var buf strings.Builder
		// Full scale: the cancel lands 20 ms in, plus however late a busy
		// runtime fires its timer, so the figure needs a runtime far
		// above that for a fifth of it to measure the stop.
		r := NewRunner(&buf)
		t0 := time.Now()
		if err := r.RunFigure("dvfs"); err != nil {
			t.Fatal(err)
		}
		full := time.Since(t0)

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		r.Ctx = ctx
		timer := time.AfterFunc(20*time.Millisecond, cancel)
		defer timer.Stop()
		t0 = time.Now()
		err := r.RunFigure("dvfs")
		cancelled := time.Since(t0)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("dvfs cancelled mid-run returned %v, want context.Canceled", err)
		}
		if cancelled*5 > full {
			t.Fatalf("cancelled dvfs took %v of a %v figure: cancellation is not stopping the simulations", cancelled, full)
		}
		check()
	})
	t.Run("cancelled mid-all", func(t *testing.T) {
		check := leakCheck(t)
		var buf strings.Builder
		t0 := time.Now()
		if err := quickRunner(&buf).RunEverything(); err != nil {
			t.Fatal(err)
		}
		full := time.Since(t0)

		// A fresh Runner: the first one serves every point from its flights.
		r := quickRunner(&buf)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		r.Ctx = ctx
		timer := time.AfterFunc(20*time.Millisecond, cancel)
		defer timer.Stop()
		t0 = time.Now()
		err := r.RunEverything()
		cancelled := time.Since(t0)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunEverything cancelled mid-run returned %v, want context.Canceled", err)
		}
		if cancelled*5 > full {
			t.Fatalf("cancelled RunEverything took %v of a %v run: cancellation is not stopping the simulations", cancelled, full)
		}
		check()
	})
}
