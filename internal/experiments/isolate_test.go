package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"jvmpower/internal/metrics"
	"jvmpower/internal/supervisor"
)

// TestMain doubles as the worker binary: the isolation tests point the
// supervisor at this very test executable with JVMPOWER_WORKER=1 in the
// environment, so the subprocess speaks the worker protocol instead of
// running the test suite. No separate binary to build, and the worker runs
// exactly the package under test.
func TestMain(m *testing.M) {
	// The worker check stays FIRST: crash-driver subprocesses (below) spawn
	// supervised workers that inherit the driver's environment, and a
	// process with both variables set must serve points, not drive.
	if os.Getenv("JVMPOWER_WORKER") == "1" {
		if err := ServeWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if os.Getenv("JVMPOWER_CRASH_DRIVER") == "1" {
		// Crash-torture mode: run a real figure campaign, journal and
		// cache live, with kill-point injection armed — the subprocess the
		// kill-anywhere gate SIGKILLs and then resumes. See crashgate_test.go.
		os.Exit(crashDriverMain())
	}
	os.Exit(m.Run())
}

// isolatedRunner returns a quick runner whose points execute on supervised
// worker subprocesses, plus the registry both layers share. cfg tweaks the
// supervisor config after the test defaults are set.
func isolatedRunner(t *testing.T, buf *strings.Builder, workers int, cfg func(*supervisor.Config)) *Runner {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	r := quickRunner(buf)
	r.Metrics = metrics.NewRegistry()
	c := supervisor.Config{
		Argv:    []string{exe},
		Env:     []string{"JVMPOWER_WORKER=1"},
		Workers: workers,
		// Race-instrumented binaries hold their pipes for ~1s of runtime
		// shutdown after a clean exit; the default silence budget stays
		// clear of that. Hang tests shrink it — their wedged workers never
		// exit on their own, so the artifact cannot bite.
		HeartbeatTimeout: 5 * time.Second,
		Metrics:          r.Metrics,
		Stderr:           io.Discard,
	}
	if cfg != nil {
		cfg(&c)
	}
	sup, err := supervisor.New(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)
	r.Supervisor = sup
	return r
}

// TestIsolatedByteIdentical is the tentpole's determinism gate: the same
// figure at the same seed must render byte-identically whether points are
// computed in-process or on supervised worker subprocesses.
func TestIsolatedByteIdentical(t *testing.T) {
	var inproc strings.Builder
	r1 := quickRunner(&inproc)
	if err := r1.RunFigure("fig6"); err != nil {
		t.Fatal(err)
	}

	var isolated strings.Builder
	r2 := isolatedRunner(t, &isolated, 2, nil)
	if err := r2.RunFigure("fig6"); err != nil {
		t.Fatal(err)
	}

	if got := r2.Metrics.Counter("supervisor.tasks.ok").Value(); got == 0 {
		t.Fatal("no points went through the supervisor: isolation not active")
	}
	if inproc.String() != isolated.String() {
		t.Fatalf("isolated output differs from in-process output\n-- in-process --\n%s\n-- isolated --\n%s",
			inproc.String(), isolated.String())
	}
	if len(r2.Faulted()) != 0 {
		t.Fatalf("isolated run degraded points: %+v", r2.Faulted())
	}
}

// TestIsolatedGroupTask sends one group task to a worker: quick
// _213_javac under SemiSpace at 6, 12 and 24 MB. The 6 MB lane leaves the
// lockstep run at the Runner's seed, as TestLockstepMatchesSeparateRuns
// sees, so the worker characterizes that heap again on its own. Each
// member must come back with the result or error text serial Run gives,
// and the journal must hold one "isolated" record per member.
func TestIsolatedGroupTask(t *testing.T) {
	group := javacSweep(t, 6, 12, 24)
	var b0, b1, b2 strings.Builder
	in := quickRunner(&b0)
	in.Metrics = metrics.NewRegistry()
	if err := in.RunAll(group); err != nil {
		t.Fatal(err)
	}
	if runs := in.Metrics.Counter("core.characterize.runs").Value(); runs != int64(len(group))+1 {
		t.Fatalf("in-process lockstep run of %d heaps made %d characterize runs; want one lane to leave and run again",
			len(group), runs)
	}

	serial := quickRunner(&b1)
	r := isolatedRunner(t, &b2, 1, nil)
	var journal bytes.Buffer
	r.Journal = metrics.NewJournal(&journal)
	if err := r.RunAll(group); err != nil {
		t.Fatal(err)
	}
	if tasks := r.Metrics.Counter("supervisor.tasks.ok").Value(); tasks != 1 {
		t.Fatalf("%d tasks for one group, want 1", tasks)
	}
	for _, p := range group {
		got, gotErr := r.Run(p)
		want, wantErr := serial.Run(p)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: isolated error %v, serial %v", p, gotErr, wantErr)
		}
		if wantErr == nil {
			samePoint(t, p.String(), got, want)
		}
	}
	if err := r.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := metrics.DecodeJournal[PointEvent](&journal)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, ev := range events {
		if seen[ev.HeapMB] || ev.Source != "isolated" {
			t.Fatalf("record %+v: want one isolated record per member", ev)
		}
		seen[ev.HeapMB] = true
	}
	if len(seen) != len(group) {
		t.Fatalf("journal holds records for %d of %d members", len(seen), len(group))
	}
}

// TestIsolatedHungWorkerDegrades simulates the failure mode the tentpole
// exists for: a point that wedges its worker (no heartbeat, no result, no
// exit). The watchdog must SIGKILL the worker, the crash must classify as a
// hang, and the figure must complete with that one cell degraded.
func TestIsolatedHungWorkerDegrades(t *testing.T) {
	const victim = "_209_db/JikesRVM/SemiSpace/128MB"
	var buf strings.Builder
	r := isolatedRunner(t, &buf, 2, func(c *supervisor.Config) {
		c.HeartbeatTimeout = 400 * time.Millisecond
	})
	r.Faults = mustPlan(t, "hang-point="+victim)

	if err := r.RunFigure("fig6"); err != nil {
		t.Fatalf("figure aborted instead of degrading: %v", err)
	}
	if !strings.Contains(buf.String(), missingCell) {
		t.Fatalf("figure output shows no degraded cell:\n%s", buf.String())
	}
	assertCrashRecorded(t, r, victim, "hang")
	if got := r.Metrics.Counter("supervisor.crashes.hang").Value(); got != 1 {
		t.Fatalf("supervisor.crashes.hang = %d, want 1", got)
	}
	if r.BreakerTripped("fig6") {
		t.Fatal("one hang tripped the breaker; healthy cells should have reset it")
	}
}

// TestIsolatedOOMWorkerDegrades simulates the kernel OOM killer: the worker
// dies by a SIGKILL the supervisor did not send. The crash must classify as
// OOM — the signature a memory-ceiling violation produces — and the run must
// complete around the loss.
func TestIsolatedOOMWorkerDegrades(t *testing.T) {
	const victim = "_209_db/JikesRVM/SemiSpace/128MB"
	var buf strings.Builder
	r := isolatedRunner(t, &buf, 2, func(c *supervisor.Config) {
		c.MemLimit = "4GiB" // exercises the GOMEMLIMIT plumbing; the ceiling itself is never reached
	})
	r.Faults = mustPlan(t, "kill-point="+victim)

	if err := r.RunFigure("fig6"); err != nil {
		t.Fatalf("figure aborted instead of degrading: %v", err)
	}
	if !strings.Contains(buf.String(), missingCell) {
		t.Fatalf("figure output shows no degraded cell:\n%s", buf.String())
	}
	assertCrashRecorded(t, r, victim, "OOM")
	if got := r.Metrics.Counter("supervisor.crashes.oom").Value(); got != 1 {
		t.Fatalf("supervisor.crashes.oom = %d, want 1", got)
	}
}

// assertCrashRecorded checks the fault report carries the victim point with
// an error string naming the crash classification.
func assertCrashRecorded(t *testing.T, r *Runner, victim, classification string) {
	t.Helper()
	for _, f := range r.Faulted() {
		if strings.Contains(f.Point, victim) {
			if !strings.Contains(f.Error, classification) {
				t.Fatalf("victim's fault record %q does not name the %s classification", f.Error, classification)
			}
			return
		}
	}
	t.Fatalf("victim %s missing from fault report: %+v", victim, r.Faulted())
}

// TestBreakerTripsOnConsecutiveDeaths kills the worker on every fig6 point:
// after the threshold of consecutive deaths the figure's circuit breaker
// must open, and the remaining cells must degrade without being dispatched —
// visible as breaker-open fault records rather than further crashes.
func TestBreakerTripsOnConsecutiveDeaths(t *testing.T) {
	var buf strings.Builder
	r := isolatedRunner(t, &buf, 4, nil)
	r.Faults = mustPlan(t, "kill-point=JikesRVM/SemiSpace") // every fig6 point

	if err := r.RunFigure("fig6"); err != nil {
		t.Fatalf("figure aborted instead of degrading: %v", err)
	}
	if !r.BreakerTripped("fig6") {
		t.Fatal("breaker did not trip despite every worker dying")
	}
	if got := r.Metrics.Counter("experiments.breaker.tripped").Value(); got != 1 {
		t.Fatalf("experiments.breaker.tripped = %d, want 1 (trip must be recorded once)", got)
	}
	var crashes, skipped int
	for _, f := range r.Faulted() {
		switch {
		case strings.Contains(f.Error, "circuit breaker open"):
			skipped++
		case strings.Contains(f.Error, "worker"):
			crashes++
		}
	}
	if crashes != supervisor.TripThreshold {
		t.Fatalf("%d crash records before the trip, want exactly the threshold %d (render order is deterministic)",
			crashes, supervisor.TripThreshold)
	}
	if skipped == 0 {
		t.Fatal("no cells were degraded by the open breaker")
	}
	if !strings.Contains(buf.String(), missingCell) {
		t.Fatal("figure output shows no degraded cells")
	}
}
