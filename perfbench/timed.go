package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"jvmpower/internal/stats"
)

// setupProbes is how many set-up probes run before each timed pass and
// after the last one; setup_s is the median of all of them. Spreading them
// over the window lets them see the same host phases the passes see.
const setupProbes = 5

// minPasses is the fewest timed passes a run with a window makes. A
// full-scale Figure 6 pass takes about half the window, and the host's
// speed phases last tens of seconds, so one pass would see too few of them.
const minPasses = 2

// binaries are the program's command-line tools, built from the checkout.
type binaries struct {
	experiments string
}

// buildBinaries builds cmd/experiments into buildDir/bin. go build skips
// the link when the binary is already up to date, so only the first run in
// a checkout pays for compilation.
func buildBinaries(root string) (binaries, error) {
	bin, err := filepath.Abs(filepath.Join(root, buildDir, "bin"))
	if err != nil {
		return binaries{}, err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir, "tmp"), 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/experiments")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return binaries{}, fmt.Errorf("building the program: %w", err)
	}
	return binaries{experiments: filepath.Join(bin, "experiments")}, nil
}

// passOutput is one finished process: what it printed and what it cost.
type passOutput struct {
	exit           int
	stdout, stderr []byte
	dir            string // the pass's scratch directory
	wall, cpu      time.Duration
	maxRSSKB       int64
}

// runProcess runs argv in dir and waits for it. cpu and maxRSSKB come from
// the wait status, which covers the process and every child it reaped (the
// isolation workers), so they are the whole run's CPU and largest resident
// set.
func runProcess(argv []string, dir string) (passOutput, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return passOutput{}, fmt.Errorf("%s: %w", argv[0], err)
	}
	out := passOutput{
		exit: cmd.ProcessState.ExitCode(), stdout: stdout.Bytes(), stderr: stderr.Bytes(),
		dir: dir, wall: wall,
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		out.maxRSSKB = ru.Maxrss
	}
	return out, nil
}

// passStats is one timed pass as recorded.
type passStats struct {
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	RSSMB   float64 `json:"peak_rss_mb"`
	Points  int     `json:"points"`
	Failed  int     `json:"failed"`
	Digest  string  `json:"digest"`
	Problem string  `json:"problem,omitempty"`
}

// timing is the timed half of a run.
type timing struct {
	setup             []float64
	passes            []passStats
	text              string // the first pass's checked output
	attempted, failed int
	faults            []string
}

// e2e reduces the passes to the end-to-end metrics: the median of each
// per-pass value, and the median set-up probe.
func (t *timing) e2e() map[string]float64 {
	var wall, cpu, rss []float64
	for _, p := range t.passes {
		wall = append(wall, p.WallS)
		cpu = append(cpu, p.CPUS)
		rss = append(rss, p.RSSMB)
	}
	return map[string]float64{
		"wall_s":      stats.Median(wall),
		"cpu_s":       stats.Median(cpu),
		"peak_rss_mb": stats.Median(rss),
		"setup_s":     stats.Median(t.setup),
	}
}

// probeSetup runs n set-up probes and records their wall times.
func (t *timing) probeSetup(w *workload, b binaries, seed uint64, work string, n int) error {
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp(work, "probe-")
		if err != nil {
			return err
		}
		out, err := runProcess(w.probe(b, seed, dir), dir)
		if err != nil {
			return err
		}
		if out.exit != w.probeExit || !bytes.Contains(out.stderr, []byte(w.probeSays)) {
			return fmt.Errorf("setup probe: exit %d, stderr %q: the start-up path changed", out.exit, out.stderr)
		}
		t.setup = append(t.setup, out.wall.Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// measure runs timed passes of the workload until another pass would
// overrun the window (at least minPasses; a zero window makes one pass),
// checking each pass's output, with set-up probes before each pass and
// after the last.
func measure(w *workload, b binaries, seed uint64, window time.Duration, work string) (*timing, error) {
	t := &timing{}
	ref := w.digests[seed]
	stored := filepath.Join(buildDir, "digests", fmt.Sprintf("%s-seed%d", w.name, seed))
	if prev, err := os.ReadFile(stored); err == nil && ref == "" {
		ref = string(prev) // an earlier run in this checkout saw this seed
	}
	start := time.Now()
	for {
		if err := t.probeSetup(w, b, seed, work, setupProbes); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(work, "pass-")
		if err != nil {
			return nil, err
		}
		out, err := runProcess(w.argv(b, seed, dir), dir)
		if err != nil {
			return nil, err
		}
		text, points, failed, problem := w.check(out)
		sum := sha256.Sum256([]byte(text))
		ps := passStats{
			WallS: out.wall.Seconds(), CPUS: out.cpu.Seconds(), RSSMB: float64(out.maxRSSKB) / 1024,
			Points: points, Failed: failed, Digest: hex.EncodeToString(sum[:]), Problem: problem,
		}
		switch {
		case problem != "":
		case ref == "":
			ref = ps.Digest
			t.text = text
		case ps.Digest != ref:
			ps.Problem = fmt.Sprintf("output digest %s, want %s", ps.Digest, ref)
		case t.text == "":
			t.text = text
		}
		if ps.Problem != "" {
			ps.Failed = ps.Points
			t.faults = append(t.faults, fmt.Sprintf("pass %d: %s", len(t.passes)+1, ps.Problem))
		}
		t.passes = append(t.passes, ps)
		t.attempted += ps.Points
		t.failed += ps.Failed
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		n := len(t.passes)
		elapsed := time.Since(start)
		if window == 0 || (n >= minPasses && elapsed+elapsed/time.Duration(n) > window) {
			break
		}
	}
	if err := t.probeSetup(w, b, seed, work, setupProbes); err != nil {
		return nil, err
	}
	if t.failed == 0 {
		if err := os.MkdirAll(filepath.Dir(stored), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(stored, []byte(ref), 0o644); err != nil {
			return nil, err
		}
	}
	return t, nil
}
