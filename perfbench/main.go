// Command perfbench is the repository's benchmark. It builds cmd/experiments
// from the checkout it runs in, times that binary with tracing off on one
// workload, checks its output, and with -trace 1 adds one traced in-process
// run that splits the workload's time across the simulator's layers.
// README.md explains the workloads and metrics; BENCHMARK.json at the
// checkout root lists them.
//
//	bash perfbench/run.sh --workload fig6-full --seed 1 --seconds 55 --trace 0
//	bash perfbench/run.sh compare set-a.jsonl set-b.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every run also appends a full
// record (environment, passes, all metrics) to .bench_build/results.jsonl,
// which the compare subcommand reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"jvmpower/internal/benchstat"
)

// buildDir holds everything a run leaves behind, relative to the checkout.
const buildDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// record is one run as the compare subcommand reads it back.
type record struct {
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
	Seconds  int                   `json:"seconds"`
	Trace    bool                  `json:"trace"`
	Env      benchstat.Environment `json:"env"`
	Setup    []float64             `json:"setup_probes_s"`
	Passes   []passStats           `json:"passes"`
	E2E      map[string]float64    `json:"end_to_end"`
	Layers   map[string]float64    `json:"per_layer,omitempty"`
	Result   result                `json:"result"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "input seed, passed to the program's -seed")
	seconds := fs.Int("seconds", 55, "measurement window for the timed passes")
	trace := fs.Int("trace", 0, "1 adds the traced in-process run and reports the per-layer metrics")
	recordPath := fs.String("record", filepath.Join(buildDir, "results.jsonl"), "append the full run record to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	bins, err := buildBinaries(".")
	if err != nil {
		return err
	}
	env := benchstat.CaptureEnvironment(nil, gitSHA("."))
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envJSON)

	tmp, err := filepath.Abs(filepath.Join(buildDir, "tmp"))
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(tmp, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	rec := record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Env: env}
	// A traced run makes one untraced pass, which checks the output and is
	// the base of trace.overhead_pct; the traced run is its measurement.
	window := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		window = 0
	}
	tm, err := measure(w, bins, *seed, window, work)
	if err != nil {
		return err
	}
	rec.Setup, rec.Passes, rec.E2E = tm.setup, tm.passes, tm.e2e()
	attempted, failed := tm.attempted, tm.failed
	for _, f := range tm.faults {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	metrics := rec.E2E
	want := sp.EndToEnd
	if *trace == 1 {
		tr, err := w.trace(&traceEnv{bins: bins, seed: *seed, dir: work, cliText: tm.text})
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		tr.layers["trace.overhead_pct"] = (tr.wall.Seconds()/rec.E2E["wall_s"] - 1) * 100
		attempted += tr.attempted
		failed += tr.failed
		for _, f := range tr.faults {
			fmt.Fprintln(os.Stderr, "perfbench: traced check failed:", f)
		}
		if err := tr.spans.writeFile(filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))); err != nil {
			return err
		}
		rec.Layers = tr.layers
		metrics, want = tr.layers, sp.PerLayer
	}
	rec.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		rec.Result.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if len(metrics) != len(want) {
		return fmt.Errorf("measured %d metrics, BENCHMARK.json lists %d", len(metrics), len(want))
	}
	if err := appendRecord(*recordPath, rec); err != nil {
		return err
	}
	out, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// appendRecord adds one JSON line to path, creating its directory.
func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitSHA reads HEAD from the checkout's .git directory without running git
// (which would search the parent directories). A checkout that is not a git
// repository has no SHA.
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []specEntry `json:"workloads"`
	EndToEnd   []specEntry `json:"end_to_end"`
	PerLayer   []specEntry `json:"per_layer"`
}

type specEntry struct {
	Name   string   `json:"name"`
	Why    string   `json:"why,omitempty"`
	Unit   string   `json:"unit,omitempty"`
	Better string   `json:"better,omitempty"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New(path + ": no metrics")
	}
	return &s, nil
}
