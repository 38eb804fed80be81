package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"jvmpower/internal/metrics"
	"jvmpower/internal/supervisor"
)

// The kill-anywhere gate: SIGKILL a real campaign process at injected
// journal offsets — after the Nth record's group commit, or halfway
// through writing a record — across every execution transport, then
// resume from the survivors (per-point sync journal + self-verifying disk
// cache) and require the finished figure byte-identical to a run that was
// never interrupted. This is the acceptance test for the whole durability
// story: if the sync policy under-fsyncs, the salvager over- or
// under-trims, the cache serves a torn entry, or resume miscounts, the
// bytes differ or the accounting assertions below catch it.

// crashDriverMain is the re-exec entry point (see TestMain): a real
// process running a real figure with journal, cache, and optional crash
// injection wired exactly as cmd/experiments wires them. Configuration
// arrives in JVMPOWER_DRIVER_* environment variables; the figure's bytes
// are written to JVMPOWER_DRIVER_OUT only on clean completion.
func crashDriverMain() int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "crash-driver:", err)
		return 1
	}
	var out strings.Builder
	r := quickRunner(&out)
	r.CacheDir = os.Getenv("JVMPOWER_DRIVER_CACHE")
	r.Metrics = metrics.NewRegistry()

	jpath := os.Getenv("JVMPOWER_DRIVER_JOURNAL")
	openJournal := metrics.OpenJournal
	if os.Getenv("JVMPOWER_DRIVER_RESUME") == "1" {
		rep, err := r.LoadResume(jpath)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "crash-driver: resume: %s\n", rep)
		openJournal = metrics.OpenJournalAppend
	}
	j, err := openJournal(jpath)
	if err != nil {
		return fail(err)
	}
	// The default SyncPolicy (SyncPoint) is the durability claim under
	// test; the driver does not override it.
	if d := os.Getenv("JVMPOWER_CRASH_JOURNAL"); d != "" {
		n, mid, err := metrics.ParseCrashDirective(d)
		if err != nil {
			return fail(err)
		}
		j.SetCrashPoint(n, mid)
	}
	r.Journal = j

	switch mode := os.Getenv("JVMPOWER_DRIVER_MODE"); mode {
	case "", "inproc":
	case "isolate":
		exe, err := os.Executable()
		if err != nil {
			return fail(err)
		}
		sup, err := supervisor.New(supervisor.Config{
			Argv:             []string{exe},
			Env:              []string{"JVMPOWER_WORKER=1"},
			Workers:          2,
			HeartbeatTimeout: 5 * time.Second,
			Metrics:          r.Metrics,
			Stderr:           io.Discard,
		})
		if err != nil {
			return fail(err)
		}
		defer sup.Close()
		r.Supervisor = sup
	case "fleet":
		// One in-process loopback node: when the SIGKILL lands it takes
		// coordinator and node down together — a whole-machine crash, the
		// worst case for a fleet journal.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			_ = supervisor.Serve(ctx, ln, supervisor.ServeConfig{Name: "n0", Capacity: 2, Handler: HandleSpec, Stderr: io.Discard})
		}()
		sup, err := supervisor.New(supervisor.Config{Nodes: []string{ln.Addr().String()}, Metrics: r.Metrics, Stderr: io.Discard})
		if err != nil {
			return fail(err)
		}
		defer sup.Close()
		r.Supervisor = sup
	default:
		return fail(fmt.Errorf("unknown JVMPOWER_DRIVER_MODE %q", mode))
	}

	if err := r.RunFigure(os.Getenv("JVMPOWER_DRIVER_FIG")); err != nil {
		return fail(err)
	}
	if err := j.Close(); err != nil {
		return fail(err)
	}
	if err := os.WriteFile(os.Getenv("JVMPOWER_DRIVER_OUT"), []byte(out.String()), 0o644); err != nil {
		return fail(err)
	}
	return 0
}

// runDriver launches one crash-driver subprocess and returns its exit
// error (nil for a clean exit) and combined stderr.
func runDriver(t *testing.T, env map[string]string) (error, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "JVMPOWER_CRASH_DRIVER=1")
	for k, v := range env {
		cmd.Env = append(cmd.Env, k+"="+v)
	}
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	cmd.Stdout = &errBuf
	return cmd.Run(), errBuf.String()
}

// wantSIGKILL asserts the driver died by the injected SIGKILL, not by a
// clean exit (injection never fired) or some other failure.
func wantSIGKILL(t *testing.T, err error, stderr string) {
	t.Helper()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("driver did not die (err %v) — crash injection never fired\n%s", err, stderr)
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("driver died of %v, want SIGKILL\n%s", ee, stderr)
	}
}

// TestKillAnywhereResumeByteIdentical sweeps SIGKILL injection points —
// after the 1st and 3rd journal records' group commit, and mid-way through
// the 2nd record's bytes — across the in-process, isolated-worker, and
// fleet transports. Every crashed campaign must salvage to exactly the
// records the sync policy promised durable, and the resumed run's figure
// must match the uninterrupted run byte for byte.
func TestKillAnywhereResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 9 crash/resume subprocess pairs")
	}
	// The uninterrupted reference: same package, same seed, same quick
	// mode the driver runs.
	var ref strings.Builder
	if err := quickRunner(&ref).RunFigure("fig6"); err != nil {
		t.Fatal(err)
	}
	baseline := ref.String()

	for _, mode := range []string{"inproc", "isolate", "fleet"} {
		for _, tc := range []struct {
			directive string
			complete  int  // records the salvager must recover
			torn      bool // and whether a torn tail must remain
		}{
			{"after=1", 1, false},
			{"mid=2", 1, true},
			{"after=3", 3, false},
		} {
			t.Run(mode+"/"+tc.directive, func(t *testing.T) {
				dir := t.TempDir()
				env := map[string]string{
					"JVMPOWER_DRIVER_FIG":     "fig6",
					"JVMPOWER_DRIVER_OUT":     filepath.Join(dir, "out.txt"),
					"JVMPOWER_DRIVER_CACHE":   filepath.Join(dir, "points"),
					"JVMPOWER_DRIVER_JOURNAL": filepath.Join(dir, "run.jsonl"),
					"JVMPOWER_DRIVER_MODE":    mode,
				}

				// Phase 1: the crash. The injected SIGKILL must land, and
				// no figure output may exist.
				env["JVMPOWER_CRASH_JOURNAL"] = tc.directive
				err, stderr := runDriver(t, env)
				wantSIGKILL(t, err, stderr)
				if _, err := os.Stat(env["JVMPOWER_DRIVER_OUT"]); !os.IsNotExist(err) {
					t.Fatal("crashed run wrote figure output")
				}

				// Phase 2: salvage accounting. after=N crashed after record
				// N's group commit, so exactly N records must be durable;
				// mid=N crashed halfway through record N's bytes, so N-1
				// records plus a torn tail.
				jf, err2 := os.Open(env["JVMPOWER_DRIVER_JOURNAL"])
				if err2 != nil {
					t.Fatalf("crashed run left no journal: %v", err2)
				}
				_, salvage, err2 := metrics.DecodeJournalSalvage[map[string]any](jf)
				jf.Close()
				if err2 != nil {
					t.Fatal(err2)
				}
				if salvage.Records != tc.complete || salvage.TornTail != tc.torn {
					t.Fatalf("salvaged %d records (torn=%v), want %d (torn=%v)",
						salvage.Records, salvage.TornTail, tc.complete, tc.torn)
				}

				// Phase 3: fleet campaigns resume from a merged journal —
				// the merge must swallow the torn shard and note it.
				if mode == "fleet" {
					merged := filepath.Join(dir, "merged.jsonl")
					mf, err := os.Create(merged)
					if err != nil {
						t.Fatal(err)
					}
					_, mrep, err := MergeJournals(mf, env["JVMPOWER_DRIVER_JOURNAL"])
					if cerr := mf.Close(); err == nil {
						err = cerr
					}
					if err != nil {
						t.Fatal(err)
					}
					if mrep.Clean() != !tc.torn {
						t.Fatalf("merge report clean=%v over a journal with torn=%v", mrep.Clean(), tc.torn)
					}
					env["JVMPOWER_DRIVER_JOURNAL"] = merged
				}

				// Phase 4: the resume. Same transport, no injection; the
				// finished figure must match the uninterrupted run exactly.
				delete(env, "JVMPOWER_CRASH_JOURNAL")
				env["JVMPOWER_DRIVER_RESUME"] = "1"
				if err, stderr := runDriver(t, env); err != nil {
					t.Fatalf("resume run failed: %v\n%s", err, stderr)
				}
				got, err2 := os.ReadFile(env["JVMPOWER_DRIVER_OUT"])
				if err2 != nil {
					t.Fatal(err2)
				}
				if string(got) != baseline {
					t.Fatalf("resumed %s/%s output differs from the uninterrupted run", mode, tc.directive)
				}
			})
		}
	}
}

// TestCrashMidRecordThenCorruptTail is the end-to-end corruption gate: a
// mid-record crash plus post-hoc bit flips and spliced garbage in the
// journal must still resume to byte-identical output — the salvager trims
// to intact records, the cache re-serves them, and recompute covers the
// rest.
func TestCrashMidRecordThenCorruptTail(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns crash/resume subprocess pair")
	}
	var ref strings.Builder
	if err := quickRunner(&ref).RunFigure("fig6"); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	env := map[string]string{
		"JVMPOWER_DRIVER_FIG":     "fig6",
		"JVMPOWER_DRIVER_OUT":     filepath.Join(dir, "out.txt"),
		"JVMPOWER_DRIVER_CACHE":   filepath.Join(dir, "points"),
		"JVMPOWER_DRIVER_JOURNAL": filepath.Join(dir, "run.jsonl"),
		"JVMPOWER_CRASH_JOURNAL":  "mid=4",
	}
	err, stderr := runDriver(t, env)
	wantSIGKILL(t, err, stderr)

	// Make the wreckage worse: flip a byte inside the last intact record
	// and append garbage — the kind of damage fsck finds in the field.
	jpath := env["JVMPOWER_DRIVER_JOURNAL"]
	data, err2 := os.ReadFile(jpath)
	if err2 != nil {
		t.Fatal(err2)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) >= 2 {
		lines[len(lines)-2][10] ^= 0x20 // corrupt the last complete record
	}
	data = append(bytes.Join(lines, []byte("\n")), '\n')
	data = append(data, []byte("%%% not a journal line %%%\n")...)
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	delete(env, "JVMPOWER_CRASH_JOURNAL")
	env["JVMPOWER_DRIVER_RESUME"] = "1"
	if err, stderr := runDriver(t, env); err != nil {
		t.Fatalf("resume over corrupted journal failed: %v\n%s", err, stderr)
	}
	got, err2 := os.ReadFile(env["JVMPOWER_DRIVER_OUT"])
	if err2 != nil {
		t.Fatal(err2)
	}
	if string(got) != ref.String() {
		t.Fatal("resume over corrupted journal altered figure output")
	}
}
