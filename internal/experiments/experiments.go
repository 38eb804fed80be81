// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI): the thermal-throttling demonstration (Fig. 1),
// the benchmark table (Fig. 5), the Jikes RVM energy decomposition (Fig. 6),
// energy-delay products across collectors and heap sizes (Fig. 7), average
// and peak power per component (Fig. 8), the memory-energy breakdown
// (Sec. VI-B), the Kaffe decomposition and EDP on the P6 platform (Figs. 9
// and 10), and the Kaffe-on-PXA255 embedded study (Fig. 11).
//
// A Runner caches every characterization point it computes, so figures that
// share configurations (6, 7, and 8 all draw on the Jikes matrix) reuse
// runs. Points execute in parallel; each run is self-contained and
// deterministic, so the tables are reproducible bit-for-bit.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jvmpower/internal/core"
	"jvmpower/internal/faultinject"
	"jvmpower/internal/metrics"
	"jvmpower/internal/platform"
	"jvmpower/internal/supervisor"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// Runner executes experiment points with caching and renders figures.
type Runner struct {
	Out io.Writer
	// Quick scales workloads down (~4x) and thins the heap sweep, for
	// tests and smoke runs. Shapes survive; absolute values shift.
	Quick bool
	// Seed drives every run's determinism.
	Seed uint64
	// CacheDir, when non-empty, persists each completed point's
	// core.Outcome to disk, keyed by a hash of its PointID and every runner
	// setting that determines its bytes (see diskKey), so a rerun
	// recomputes only invalidated points. Loaded results carry a nil
	// Meter (ground truth is not persisted); every figure reached through
	// Run consumes only the Outcome.
	CacheDir string
	// Metrics, when non-nil, instruments the pipeline (see observe.go for
	// the schema). Journal, when non-nil, receives one PointEvent per
	// completed point. Neither touches figure output: runs are
	// byte-identical with instrumentation on or off.
	Metrics *metrics.Registry
	Journal *metrics.Journal

	// Faults, when non-nil and enabled, injects the plan's deterministic
	// failure modes into every characterized point: the measurement-chain
	// classes inside the simulation plus point-level fail/panic faults in
	// the dispatcher itself. Nil (the default) leaves every layer on its
	// exact uninstrumented path.
	Faults *faultinject.Plan
	// PointTimeout bounds each in-process characterization attempt's wall
	// time: the VM stops at its next segment boundary past the budget and
	// the point degrades with a timeout error. A budget is per point, so
	// a set PointTimeout keeps every job to one point (see sweepJobs). 0
	// (the default) leaves attempts unbounded.
	PointTimeout time.Duration
	// Ctx, when non-nil, cancels the run: in-flight simulations, in Run
	// and in the figures that characterize outside it, stop at their next
	// segment boundary, and every subsequent Run returns context.Canceled,
	// which RunAll and the figures treat as abortive.
	Ctx context.Context

	// Supervisor, when non-nil, sends every group the Runner computes
	// (see sweepJobs) to an executor as one task — a local worker
	// subprocess or a remote node (see isolate.go) — instead of computing
	// in-process. The supervisor then enforces the point budget from
	// outside (configure PointTimeout on it too: a set PointTimeout keeps
	// every task to one point), and executor deaths feed per-figure
	// circuit breakers that open after supervisor.TripThreshold of them.
	Supervisor *supervisor.Supervisor

	// Shared, when non-nil, coalesces in-flight computations with other
	// runners through a cross-runner flight table keyed by the
	// content-addressed disk-cache key (see shared.go). The daemon gives
	// every concurrent job's runner the same table, so overlapping
	// campaigns from different clients dedupe to one computation.
	Shared *SharedFlights
	// OnPoint, when non-nil, observes every completed point (the same
	// PointEvent the journal records). The daemon streams these to job
	// progress subscribers. Called after the point resolves, off the
	// figure-rendering path; it must not block for long.
	OnPoint func(p Point, ev PointEvent)

	mu    sync.Mutex
	cache map[PointID]*flight

	faultMu sync.Mutex
	faults  []FaultRecord

	// cacheWarnOnce gates the journal warning for disk-cache write
	// failures to one per runner; the write_errors counter carries the
	// full tally.
	cacheWarnOnce sync.Once

	breakerMu sync.Mutex
	breakers  map[string]*supervisor.Breaker
}

// flight is one singleflight entry: the first caller for a key owns the
// computation; later callers for the same key — concurrent or not — wait
// on ready and share the outcome, so parallel workers never duplicate an
// in-flight point. The Runner's table keeps finished flights as its
// figure memo; SharedFlights forgets them.
type flight struct {
	ready chan struct{} // closed when res/err are set
	res   *core.Result
	err   error
}

// NewRunner returns a Runner writing to out.
func NewRunner(out io.Writer) *Runner {
	return &Runner{Out: out, Seed: 1, cache: make(map[PointID]*flight)}
}

// Point identifies one characterization run.
type Point struct {
	Bench     *workloads.Benchmark
	Flavor    vm.Flavor
	Collector string // "" = flavor default
	HeapMB    int
	Platform  platform.Platform
	S10       bool
	FanOff    bool
}

// PointID is a point's identity by name: the one declaration the Runner's
// flights key on, the disk key hashes, and every journal point record
// leads with (its JSON tags are the journal's field names).
type PointID struct {
	Bench     string `json:"bench"`
	Flavor    string `json:"flavor"`
	Collector string `json:"collector,omitempty"`
	HeapMB    int    `json:"heap_mb"`
	Platform  string `json:"platform"`
	S10       bool   `json:"s10,omitempty"`
	FanOff    bool   `json:"fan_off,omitempty"`
}

// ID returns the point's identity.
func (p Point) ID() PointID {
	bench := noBenchmark
	if p.Bench != nil {
		bench = p.Bench.Name
	}
	return PointID{
		Bench: bench, Flavor: p.Flavor.String(), Collector: p.Collector,
		HeapMB: p.HeapMB, Platform: p.Platform.Name, S10: p.S10, FanOff: p.FanOff,
	}
}

// noBenchmark stands in for the name of a point without a benchmark, so
// the invalid-point error that rejects it can still name it.
const noBenchmark = "(no benchmark)"

// String is the identity's one rendering: the name fault plans target
// (-faults panic-point=SUBSTR) and errors, fault reports and fault records
// carry.
func (id PointID) String() string {
	col := id.Collector
	if col == "" {
		col = "default"
	}
	s := fmt.Sprintf("%s/%s/%s/%dMB/%s", id.Bench, id.Flavor, col, id.HeapMB, id.Platform)
	if id.S10 {
		s += "/s10"
	}
	if id.FanOff {
		s += "/fanoff"
	}
	return s
}

// String renders the point's identity (see PointID.String).
func (p Point) String() string { return p.ID().String() }

// Run executes (or returns the cached result of) one point: the
// one-member group {p} (see resolve). Concurrent calls for the same point
// coalesce onto one computation (singleflight); errors are cached too —
// every run is deterministic, so retrying a failed point would fail
// identically (transient injected faults are the exception, and attempt
// retries those internally before caching). Invalid points fail with a
// typed InvalidPointError before touching any cache.
func (r *Runner) Run(p Point) (*core.Result, error) {
	flights, err := r.resolve([]Point{p})
	if err != nil {
		return nil, err
	}
	return flights[0].res, flights[0].err
}

// runConfig is the one derivation of the run that characterizes p: the
// benchmark's program and profile (its S10 input when asked for, scaled
// down in Quick mode), the VM configuration at the runner's seed, the
// cooling state, and cancellation by r.Ctx. attempt narrows the context
// to its point timeout and adds instrumentation and faults; the figures
// that characterize outside Run add only their own extra.
func (r *Runner) runConfig(p Point) core.RunConfig {
	profile := p.Bench.Profile
	if p.S10 {
		profile = workloads.S10Profile(p.Bench)
	}
	if r.Quick {
		profile = profile.Scale(0.25)
	}
	return core.RunConfig{
		Platform: p.Platform,
		VM: vm.Config{
			Flavor:    p.Flavor,
			Collector: p.Collector,
			HeapSize:  units.ByteSize(p.HeapMB) * units.MB,
			Seed:      r.Seed,
		},
		Program: p.Bench.Program(),
		Profile: profile,
		FanOn:   !p.FanOff,
		Ctx:     r.runCtx(),
	}
}

// RunAll executes points in parallel (results cached as they finish) and
// returns the abortive error — an invalid point or a cancelled run — of the
// lowest-index point that hit one. Dispatch stops at the first abortive
// error: in-flight jobs finish, but no new ones start. Tolerable failures
// (injected faults, panics, timeouts) do not stop the sweep: their errors
// stay cached and degrade into missing cells when a figure pulls them. A
// job is one sweep group (see pointJobs).
func (r *Runner) RunAll(points []Point) error {
	_, err := r.runJobs(r.pointJobs(points))
	return err
}

// runJobs runs jobs through one dispatch and returns what dispatch
// returns. It alone feeds the workers.* and runall.* instruments, so a
// RunAll and a RunFigures call each count as one runall call, and busy
// time and wall time cover the same jobs.
func (r *Runner) runJobs(jobs []func() error) (int, error) {
	start := time.Now()
	defer func() {
		r.Metrics.Counter("experiments.runall.calls").Inc()
		r.Metrics.Gauge("experiments.runall.wall_seconds").Add(time.Since(start).Seconds())
	}()
	if len(jobs) == 0 {
		return 0, nil
	}
	// Worker-utilization instruments, hoisted out of the dispatch loop
	// (nil and free when Metrics is nil): utilization over a dispatch is
	// busy_ns / (wall_seconds × workers.count).
	activeG := r.Metrics.Gauge("experiments.workers.active")
	busyC := r.Metrics.Counter("experiments.workers.busy_ns")
	failed, err := r.dispatch(len(jobs), func(i int) error {
		activeG.Add(1)
		t0 := time.Now()
		err := jobs[i]()
		busyC.Add(int64(time.Since(t0)))
		activeG.Add(-1)
		return err
	})
	r.Metrics.Gauge("experiments.workers.count").Set(float64(poolSize(len(jobs))))
	return failed, err
}

// poolSize is the number of goroutines dispatch runs n jobs on.
func poolSize(n int) int {
	return min(runtime.GOMAXPROCS(0), n)
}

// dispatch runs job(0), …, job(n-1) on poolSize(n) goroutines, handing the
// indices out in order, and returns once every started job has returned.
// A job's error or a cancelled r.Ctx stops the hand-out; jobs in flight
// finish. Every index below a failing one was handed out first, so the
// lowest-index error it returns is the one a serial loop would have hit;
// it returns that index with the error, or n and nil. A job that r.Ctx
// stopped mid-simulation fails with vm.ErrCancelled, and dispatch reports
// it, like any job the cancellation kept from starting, as the context's
// error.
func (r *Runner) dispatch(n int, job func(i int) error) (int, error) {
	ctx := r.runCtx()
	errs := make([]error, n)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := poolSize(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				err := ctx.Err()
				if err == nil {
					err = job(i)
				}
				if err != nil {
					if errors.Is(err, vm.ErrCancelled) && ctx.Err() != nil {
						err = ctx.Err()
					}
					errs[i] = err
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return n, nil
}

// runCtx is r.Ctx, or a context that is never cancelled when r.Ctx is nil.
// It stops every characterization, in Run (narrowed by a point timeout) and
// outside it; context.Background keeps the VM's poll on its zero-cost path.
func (r *Runner) runCtx() context.Context {
	if r.Ctx == nil {
		return context.Background()
	}
	return r.Ctx
}

// JikesHeapsMB returns the heap sweep for a suite: the paper uses fixed
// heaps of 32-128 MB in 16 MB steps; DaCapo results are reported from
// 48 MB up (its live sets need the headroom).
func (r *Runner) JikesHeapsMB(suite string) []int {
	full := []int{32, 48, 64, 80, 96, 112, 128}
	if suite == workloads.SuiteDaCapo {
		full = []int{48, 64, 80, 96, 112, 128}
	}
	if r.Quick {
		if suite == workloads.SuiteDaCapo {
			return []int{48, 128}
		}
		return []int{32, 128}
	}
	return full
}

// EmbeddedHeapsMB returns the PXA255 heap sweep (Section VI-E).
func (r *Runner) EmbeddedHeapsMB() []int {
	if r.Quick {
		return []int{12, 32}
	}
	return []int{12, 16, 20, 24, 28, 32}
}

// Benchmarks returns the benchmark set (a representative subset in Quick
// mode: the calibration anchors of each suite).
func (r *Runner) Benchmarks() []*workloads.Benchmark {
	if !r.Quick {
		return workloads.All()
	}
	names := []string{"_213_javac", "_209_db", "_222_mpegaudio", "fop", "euler"}
	out := make([]*workloads.Benchmark, 0, len(names))
	for _, n := range names {
		b, err := workloads.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// jikesMatrix lists every (benchmark, collector, heap) point on the P6.
func (r *Runner) jikesMatrix(collectors []string) []Point {
	p6 := platform.P6()
	var pts []Point
	for _, b := range r.Benchmarks() {
		for _, col := range collectors {
			for _, h := range r.JikesHeapsMB(b.Suite) {
				pts = append(pts, Point{Bench: b, Flavor: vm.Jikes, Collector: col, HeapMB: h, Platform: p6})
			}
		}
	}
	return pts
}

// kaffeMatrix lists every (benchmark, heap) Kaffe point on the P6.
func (r *Runner) kaffeMatrix() []Point {
	p6 := platform.P6()
	var pts []Point
	for _, b := range r.Benchmarks() {
		for _, h := range r.JikesHeapsMB(b.Suite) {
			pts = append(pts, Point{Bench: b, Flavor: vm.Kaffe, HeapMB: h, Platform: p6})
		}
	}
	return pts
}

func (r *Runner) printf(format string, args ...any) {
	fmt.Fprintf(r.Out, format, args...)
}

// FigureNames returns every figure's identifier, sorted.
func FigureNames() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	sort.Strings(names)
	return names
}

// figurePlan is a figure's plan and its render. The plan declares all of
// the figure's work before any of it runs: the points its cells read
// through cell and Run, and the VM runs it makes outside Run, as jobs that
// each fill the figure's own index-addressed slots. The render reads only
// that finished work and prints the figure, so the figures a RunFigures
// call names share one dispatch and no figure waits for another.
type figurePlan struct {
	points []Point
	jobs   []func() error
	render func() error
}

// figures is the figure registry, in presentation (paper) order:
// RunEverything renders it in this order, and RunFigures and
// CampaignSpec.normalize look identifiers up in it.
var figures = []struct {
	name string
	plan func(*Runner) (*figurePlan, error)
}{
	{"fig1", (*Runner).fig1Plan},
	{"fig5", (*Runner).fig5Plan},
	{"fig6", (*Runner).fig6Plan},
	{"fig7", (*Runner).fig7Plan},
	{"fig8", (*Runner).fig8Plan},
	{"mem", (*Runner).memPlan},
	{"fig9", (*Runner).fig9Plan},
	{"fig10", (*Runner).fig10Plan},
	{"fig11", (*Runner).fig11Plan},
	// Ablations of this reproduction's own design choices (not paper
	// figures): sampling-period fidelity and the MLP timing dimension.
	{"ablation-sampling", (*Runner).ablationSamplingPlan},
	{"ablation-mlp", (*Runner).ablationMLPPlan},
	// Extensions from the paper's future-work section.
	{"dvfs", (*Runner).dvfsPlan},
	{"thermal-gc", (*Runner).thermalGCPlan},
	{"hpm-power", (*Runner).hpmPowerPlan},
	{"dwell", (*Runner).dwellPlan},
}

// figure returns the plan of the named figure, or nil if there is none.
func figure(name string) func(*Runner) (*figurePlan, error) {
	for _, f := range figures {
		if f.name == name {
			return f.plan
		}
	}
	return nil
}

// RunFigure regenerates one figure by identifier ("fig1".."fig11", "mem").
func (r *Runner) RunFigure(name string) error { return r.RunFigures(name) }

// RunEverything regenerates all figures in paper order.
func (r *Runner) RunEverything() error {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return r.RunFigures(names...)
}

// RunFigures regenerates the named figures, in the order given, through
// one dispatch. It looks every name up before it builds any plan, runs the
// work of every plan in one runJobs call, and then renders the figures in
// order. The jobs go out figure by figure: the sweep groups of the points
// no earlier figure declared, then the figure's own runs. So the
// lowest-index failure dispatch reports is the one a loop rendering the
// figures one at a time would meet first, and RunFigures stops where that
// loop would: every figure before the failing one renders, the failing
// one's plan, work or render error is returned, and no later figure
// prints.
func (r *Runner) RunFigures(names ...string) error {
	_, err := r.runFigures(names)
	return err
}

// runFigures is RunFigures, also naming the figure that failed.
func (r *Runner) runFigures(names []string) (string, error) {
	start := time.Now()
	for _, name := range names {
		if figure(name) == nil {
			return name, fmt.Errorf("experiments: unknown figure %q (have %v)", name, FigureNames())
		}
	}
	var plans []*figurePlan
	var planErr error
	for _, name := range names {
		p, err := figure(name)(r)
		if err != nil {
			planErr = err
			break
		}
		plans = append(plans, p)
	}
	var jobs []func() error
	ends := make([]int, len(plans)) // figure i's jobs end at index ends[i]
	planned := make(map[PointID]bool)
	for i, p := range plans {
		var fresh []Point
		for _, pt := range p.points {
			if id := pt.ID(); !planned[id] {
				planned[id] = true
				fresh = append(fresh, pt)
			}
		}
		jobs = append(jobs, r.pointJobs(fresh)...)
		jobs = append(jobs, p.jobs...)
		ends[i] = len(jobs)
	}
	failed, workErr := r.runJobs(jobs)
	finish := func(name string, err error) (string, error) {
		r.Metrics.Gauge("experiments.figure." + name + ".seconds").Set(time.Since(start).Seconds())
		r.Metrics.Counter("experiments.figures.run").Inc()
		if err == nil {
			return "", nil
		}
		r.Metrics.Counter("experiments.figures.errors").Inc()
		return name, err
	}
	for i, p := range plans {
		err := workErr
		if failed >= ends[i] {
			err = p.render()
		}
		if name, err := finish(names[i], err); err != nil {
			return name, err
		}
	}
	if planErr != nil {
		return finish(names[len(plans)], planErr)
	}
	return "", nil
}
