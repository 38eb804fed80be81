package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"jvmpower/internal/experiments"
	"jvmpower/internal/metrics"
	"jvmpower/internal/workloads"
)

// defaultSeed is the program's default -seed; the recorded output digests
// are taken at it.
const defaultSeed = 1

// isolateWorkers is the -isolate pool size: one worker per CPU of the
// two-CPU host the bounds were fixed on, so the closed loop never runs more
// points at once than there are CPUs.
const isolateWorkers = 2

// workload is one way of running the program. Every workload is a closed
// loop: one CLI process starts the next characterization point as soon as
// one of its workers frees.
type workload struct {
	name string
	// argv is the timed command; dir is a fresh directory for the pass.
	argv func(b binaries, seed uint64, dir string) []string
	// probe runs the same start-up path as argv and stops where the first
	// point would start; it must exit with probeExit and say probeSays on
	// stderr, which proves it got that far.
	probe     func(b binaries, seed uint64, dir string) []string
	probeExit int
	probeSays string
	// check validates one pass: the output text the digest covers, the
	// points it ran and failed, and what is wrong with it, if anything.
	check func(out passOutput) (text string, points, failed int, problem string)
	// digests holds the SHA-256 of the checked text per seed.
	digests map[uint64]string
	// trace is the traced in-process run.
	trace func(te *traceEnv) (*traced, error)
}

var allWorkloads = []*workload{
	{
		// The main path readers run: full-scale Figure 6, 107 SemiSpace
		// points on two dispatcher goroutines. Parallel simulation
		// throughput; the batch engine and the copying collector do nearly
		// all the work, and the slowest points expose idle time at the tail
		// of the dispatch.
		name: "fig6-full",
		argv: func(b binaries, seed uint64, dir string) []string {
			return []string{b.experiments, "-fig", "fig6", "-seed", strconv.FormatUint(seed, 10)}
		},
		probe: func(b binaries, seed uint64, dir string) []string {
			return []string{b.experiments, "-fig", "setup-probe", "-seed", strconv.FormatUint(seed, 10)}
		},
		probeExit: 1,
		probeSays: "unknown figure",
		check: func(out passOutput) (string, int, int, string) {
			text, problem := experimentsText(out)
			return text, fig6Points(), 0, problem
		},
		digests: map[uint64]string{
			defaultSeed: "48eab038fd356aa092bf40e498025dad9c1d55de5bedde312d9a7876a41f0f1b",
		},
		trace: traceFig6,
	},
	{
		// Every quick figure with points in supervised worker processes, a
		// fresh disk cache and a per-record-fsync journal: the only
		// workload where the isolation transport, cache writes, the
		// journal, Kaffe, MarkSweep, the PXA255 and the figures that
		// characterize outside Runner.Run do work.
		name: "quick-all-isolated",
		argv: func(b binaries, seed uint64, dir string) []string {
			return append([]string{b.experiments, "-all"}, quickIsolatedFlags(seed, dir)...)
		},
		probe: func(b binaries, seed uint64, dir string) []string {
			return append([]string{b.experiments, "-fig", "setup-probe"}, quickIsolatedFlags(seed, dir)...)
		},
		probeExit: 1,
		probeSays: "unknown figure",
		check:     checkQuickAll,
		digests: map[uint64]string{
			defaultSeed: "afab35733b1926f17f74afc28455ab471dea2f85084be9621b59a0867dd032ed",
		},
		trace: traceQuickAll,
	},
}

func quickIsolatedFlags(seed uint64, dir string) []string {
	return []string{
		"-quick", "-isolate", strconv.Itoa(isolateWorkers), "-seed", strconv.FormatUint(seed, 10),
		"-cache", filepath.Join(dir, "cache"), "-journal", filepath.Join(dir, "journal.jsonl"),
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

// missingCell is what a figure prints for a point that failed.
const missingCell = "×"

var completedLine = regexp.MustCompile(`\n\(completed in [^\n]*\)\n$`)

// experimentsText is an experiments run's figure text without the trailing
// "(completed in …)" line, and what is wrong with the run, if anything.
func experimentsText(out passOutput) (string, string) {
	if out.exit != 0 {
		return "", fmt.Sprintf("exit %d: %s", out.exit, bytes.TrimSpace(out.stderr))
	}
	loc := completedLine.FindIndex(out.stdout)
	if loc == nil {
		return "", "no (completed in …) line"
	}
	text := string(out.stdout[:loc[0]])
	switch {
	case strings.Contains(text, missingCell):
		return text, "a figure has missing cells"
	case bytes.Contains(out.stderr, []byte("fault report")):
		return text, "fault report on stderr"
	}
	return text, ""
}

// fig6Points is the number of points full-scale Figure 6 characterizes.
func fig6Points() int {
	r := experiments.NewRunner(io.Discard)
	n := 0
	for _, b := range workloads.All() {
		n += len(r.JikesHeapsMB(b.Suite))
	}
	return n
}

func checkQuickAll(out passOutput) (string, int, int, string) {
	text, problem := experimentsText(out)
	f, err := os.Open(filepath.Join(out.dir, "journal.jsonl"))
	if err != nil {
		return text, 0, 0, fmt.Sprintf("journal: %v", err)
	}
	defer f.Close()
	evs, err := metrics.DecodeJournal[experiments.PointEvent](f)
	if err != nil {
		return text, 0, 0, fmt.Sprintf("journal: %v", err)
	}
	points, failed := 0, 0
	for _, ev := range evs {
		if ev.Bench == "" {
			continue // not a point record
		}
		points++
		if ev.Outcome != "ok" {
			failed++
		}
	}
	if points == 0 && problem == "" {
		problem = "journal holds no points"
	}
	return text, points, failed, problem
}
