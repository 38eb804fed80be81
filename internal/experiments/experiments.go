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
	// Reps, when >1, runs each point that many times with derived seeds
	// and selects a quorum result by MAD outlier rejection on total energy
	// (see quorumSelect); individual repetition failures are tolerated as
	// long as one survives. Reps<=1 runs each point once, bit-identical to
	// a runner without the field.
	Reps int
	// Retries bounds re-attempts after a transient injected fault: 0 means
	// the default (2), negative disables retries. Panics, timeouts, and
	// genuine errors are never retried — the simulation is deterministic.
	Retries int
	// PointTimeout bounds each characterization attempt's wall time; 0
	// (the default) leaves attempts unbounded and on the goroutine-free
	// fast path.
	PointTimeout time.Duration
	// Ctx, when non-nil, cancels the run: in-flight attempts, and the runs
	// of the figures that characterize outside Run, are abandoned, and
	// every subsequent Run returns context.Canceled, which RunAll and the
	// figures treat as abortive.
	Ctx context.Context

	// Supervisor, when non-nil, routes every computed point to an
	// executor — a local worker subprocess or a remote node (see
	// isolate.go) — instead of computing in-process. The supervisor then
	// enforces the point budget from outside (configure PointTimeout on
	// it, not here), and executor deaths feed per-figure circuit
	// breakers.
	Supervisor *supervisor.Supervisor
	// BreakerThreshold is the consecutive-executor-death count that trips
	// a figure's circuit breaker: 0 means the default (3), negative
	// disables tripping. Ignored without a Supervisor.
	BreakerThreshold int

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

	mu     sync.Mutex
	cache  map[PointID]*flight
	resume map[PointID]bool

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
// flights and resume set key on, the disk key hashes, and every journal
// point record leads with (its JSON tags are the journal's field names).
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

// Run executes (or returns the cached result of) one point. Concurrent
// calls for the same point coalesce onto one computation (singleflight);
// errors are cached too — every run is deterministic, so retrying a
// failed point would fail identically (transient injected faults are the
// exception, and runPoint retries those internally before caching).
// Invalid points fail with a typed InvalidPointError before touching any
// cache.
func (r *Runner) Run(p Point) (*core.Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	k := p.ID()
	r.mu.Lock()
	if f, ok := r.cache[k]; ok {
		r.mu.Unlock()
		r.Metrics.Counter("experiments.singleflight.hits").Inc()
		<-f.ready
		return f.res, f.err
	}
	f := &flight{ready: make(chan struct{})}
	r.cache[k] = f
	r.mu.Unlock()
	r.Metrics.Counter("experiments.singleflight.misses").Inc()

	// The flight owner must close ready on every path: an escaping panic
	// would otherwise strand every waiter (and any later Run for this key)
	// on an unclosed channel forever. The close is deferred, and runPoint
	// additionally recovers panics into the cached error so waiters get a
	// diagnosis instead of a hang.
	defer close(f.ready)
	f.res, f.err = r.runPoint(p, k)
	return f.res, f.err
}

// characterize indirects core.Characterize so tests can inject failure
// modes; the singleflight regression test substitutes an implementation
// that panics mid-point.
var characterize = core.Characterize

// runConfig is the one derivation of the run that characterizes p at
// seed: the benchmark's program and profile (its S10 input when asked for,
// scaled down in Quick mode), the VM configuration, the cooling state, and
// cancellation by r.Ctx. computeOnce swaps in its attempt's stop channel
// and adds instrumentation and faults; the figures that characterize
// outside Run add only their own extra.
func (r *Runner) runConfig(p Point, seed uint64) core.RunConfig {
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
			Seed:      seed,
		},
		Program: p.Bench.Program(),
		Profile: profile,
		FanOn:   !p.FanOff,
		Cancel:  r.runCtx().Done(),
	}
}

// computeOnce runs one characterization of p at the given seed (which is
// the runner's seed except under quorum repetitions). stop, when non-nil,
// aborts the simulation at its next segment boundary once closed (see
// core.RunConfig.Cancel); attemptGuarded closes it when it abandons a
// timed-out or cancelled attempt, so the goroutine stops burning CPU
// instead of simulating to completion. Persistence and resilience live
// above, in computeResilient.
func (r *Runner) computeOnce(p Point, seed uint64, stop <-chan struct{}) (*core.Result, error) {
	cfg := r.runConfig(p, seed)
	cfg.Metrics, cfg.Faults, cfg.Cancel = r.Metrics, r.Faults, stop
	res, err := characterize(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", p, err)
	}
	return &res, nil
}

// RunAll executes points in parallel (results cached as they finish) and
// returns the abortive error — an invalid point or a cancelled run — of the
// lowest-index point that hit one. Dispatch stops at the first abortive
// error: in-flight points finish, but no new ones start. Tolerable failures
// (injected faults, panics, timeouts) do not stop the sweep: their errors
// stay cached and degrade into missing cells when a figure pulls them.
func (r *Runner) RunAll(points []Point) error {
	start := time.Now()
	defer func() {
		r.Metrics.Counter("experiments.runall.calls").Inc()
		r.Metrics.Gauge("experiments.runall.wall_seconds").Add(time.Since(start).Seconds())
	}()
	if len(points) == 0 {
		return nil
	}
	// Worker-utilization instruments, hoisted out of the dispatch loop
	// (nil and free when Metrics is nil): utilization over a RunAll is
	// busy_ns / (wall_seconds × workers.count).
	activeG := r.Metrics.Gauge("experiments.workers.active")
	busyC := r.Metrics.Counter("experiments.workers.busy_ns")
	err := r.dispatch(len(points), func(i int) error {
		activeG.Add(1)
		t0 := time.Now()
		_, err := r.Run(points[i])
		busyC.Add(int64(time.Since(t0)))
		activeG.Add(-1)
		if err != nil && abortive(err) {
			return err
		}
		return nil
	})
	r.Metrics.Gauge("experiments.workers.count").Set(float64(poolSize(len(points))))
	return err
}

// poolSize is the number of goroutines dispatch runs n jobs on.
func poolSize(n int) int {
	return min(runtime.GOMAXPROCS(0), n)
}

// dispatch runs job(0), …, job(n-1) on poolSize(n) goroutines, handing the
// indices out in order, and returns once every started job has returned.
// A job's error or a cancelled r.Ctx stops the hand-out; jobs in flight
// finish. Every index below a failing one was handed out first, so the
// lowest-index error it returns is the one a serial loop would have hit.
// A job that r.Ctx stopped mid-simulation fails with vm.ErrCancelled, and
// dispatch reports it, like any job the cancellation kept from starting,
// as the context's error.
func (r *Runner) dispatch(n int, job func(i int) error) error {
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
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runCtx is r.Ctx, or a context that is never cancelled when r.Ctx is nil.
// Its Done channel is the Cancel channel of every characterization a figure
// runs outside Run: nil, the VM's zero-cost path, when nothing can cancel.
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

// figures is the figure registry, in presentation (paper) order:
// RunEverything walks it, and RunFigure and CampaignSpec.normalize look
// identifiers up in it.
var figures = []struct {
	name string
	run  func(*Runner) error
}{
	{"fig1", (*Runner).Fig1Thermal},
	{"fig5", (*Runner).Fig5Benchmarks},
	{"fig6", (*Runner).Fig6EnergyDecomposition},
	{"fig7", (*Runner).Fig7EDP},
	{"fig8", (*Runner).Fig8Power},
	{"mem", (*Runner).MemoryEnergy},
	{"fig9", (*Runner).Fig9Kaffe},
	{"fig10", (*Runner).Fig10KaffeEDP},
	{"fig11", (*Runner).Fig11Embedded},
	// Ablations of this reproduction's own design choices (not paper
	// figures): sampling-period fidelity and the MLP timing dimension.
	{"ablation-sampling", (*Runner).AblationSampling},
	{"ablation-mlp", (*Runner).AblationMLP},
	// Extensions from the paper's future-work section.
	{"dvfs", (*Runner).DVFS},
	{"thermal-gc", (*Runner).ThermalGC},
	{"hpm-power", (*Runner).HPMPower},
	{"dwell", (*Runner).Dwell},
}

// figure returns the runner of the named figure, or nil if there is none.
func figure(name string) func(*Runner) error {
	for _, f := range figures {
		if f.name == name {
			return f.run
		}
	}
	return nil
}

// RunFigure regenerates one figure by identifier ("fig1".."fig11", "mem").
func (r *Runner) RunFigure(name string) error {
	fn := figure(name)
	if fn == nil {
		return fmt.Errorf("experiments: unknown figure %q (have %v)", name, FigureNames())
	}
	start := time.Now()
	err := fn(r)
	r.Metrics.Gauge("experiments.figure." + name + ".seconds").Set(time.Since(start).Seconds())
	r.Metrics.Counter("experiments.figures.run").Inc()
	if err != nil {
		r.Metrics.Counter("experiments.figures.errors").Inc()
	}
	return err
}

// RunEverything regenerates all figures in paper order.
func (r *Runner) RunEverything() error {
	for _, f := range figures {
		if err := r.RunFigure(f.name); err != nil {
			return err
		}
	}
	return nil
}
