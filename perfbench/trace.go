package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"jvmpower/internal/experiments"
	"jvmpower/internal/metrics"
	"jvmpower/internal/pointproto"
	"jvmpower/internal/stats"
	"jvmpower/internal/supervisor"
)

// span is one timed interval at a layer boundary. Spans of one traced run
// share Run; Parent is the span that caused this one (0 for the root).
type span struct {
	Run    string           `json:"run"`
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  float64          `json:"start_s"` // since the traced run began
	End    float64          `json:"end_s"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration((s.End - s.Start) * float64(time.Second)) }

// tracer keeps a traced run's spans in memory until writeFile.
type tracer struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time, counts map[string]int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Run: t.run, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(), Counts: counts,
	})
	return id
}

// begin opens a span whose children need its ID before it ends.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now, nil)
}

// finish closes a span opened by begin.
func (t *tracer) finish(id int, counts map[string]int64) span {
	end := time.Now().Sub(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
	t.spans[id-1].Counts = counts
	return t.spans[id-1]
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part its children cover.
func (t *tracer) selfTime(id int) time.Duration {
	s := t.get(id)
	kids := t.children(id)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, reach := 0.0, s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, s.End)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return time.Duration((s.End - s.Start - covered) * float64(time.Second))
}

func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceEnv is what a traced run gets from the timed half of the run.
type traceEnv struct {
	bins    binaries
	seed    uint64
	dir     string
	cliText string // the timed passes' checked output
}

// traced is a traced run's outcome.
type traced struct {
	wall              time.Duration // the workload itself, without replay
	layers            map[string]float64
	attempted, failed int
	faults            []string
	spans             *tracer
}

func (t *traced) fault(points int, format string, args ...any) {
	t.failed += points
	t.faults = append(t.faults, fmt.Sprintf(format, args...))
}

// pointRec is one point the traced Runner completed.
type pointRec struct {
	p  experiments.Point
	ev experiments.PointEvent
}

// observed is an experiments.Runner with a span per figure and per point.
type observed struct {
	tr  *tracer
	r   *experiments.Runner
	reg *metrics.Registry

	mu  sync.Mutex
	fig int // the span of the figure rendering now
	pts []pointRec
}

func newObserved(tr *tracer, out io.Writer, quick bool, seed uint64) *observed {
	o := &observed{tr: tr, reg: metrics.NewRegistry()}
	o.r = experiments.NewRunner(out)
	o.r.Quick, o.r.Seed, o.r.Metrics = quick, seed, o.reg
	o.r.OnPoint = o.onPoint
	return o
}

func (o *observed) onPoint(p experiments.Point, ev experiments.PointEvent) {
	end := time.Now()
	start := end.Add(-time.Duration(ev.DurationMS * float64(time.Millisecond)))
	o.mu.Lock()
	parent := o.fig
	o.mu.Unlock()
	o.tr.add("point "+p.String(), parent, start, end, map[string]int64{"attempts": int64(ev.Attempts)})
	o.mu.Lock()
	o.pts = append(o.pts, pointRec{p: p, ev: ev})
	o.mu.Unlock()
}

// figure renders one figure inside a span and returns the span's ID.
func (o *observed) figure(name string, parent int) (int, error) {
	id := o.tr.begin("figure "+name, parent)
	o.mu.Lock()
	o.fig = id
	o.mu.Unlock()
	err := o.r.RunFigure(name)
	o.mu.Lock()
	o.fig = parent
	o.mu.Unlock()
	o.tr.finish(id, nil)
	return id, err
}

// runnerLayers reports the experiments layer: per-point latency, pool use,
// figure self time and the flight table's hit ratio. It must run before any
// further Runner.Run call, which would count as a flight hit.
func (o *observed) runnerLayers(layers map[string]float64, renderFigs []int) {
	var ms []float64
	failed := 0
	for _, pr := range o.pts {
		ms = append(ms, pr.ev.DurationMS)
		if pr.ev.Outcome != "ok" {
			failed++
		}
	}
	layers["experiments.point_ms.p50"] = stats.Median(ms)
	layers["experiments.point_ms.p90"] = stats.Percentile(ms, 90)
	layers["experiments.points"] = float64(len(o.pts))
	layers["experiments.points_failed"] = float64(failed)
	hits := float64(o.reg.Counter("experiments.singleflight.hits").Value())
	misses := float64(o.reg.Counter("experiments.singleflight.misses").Value())
	layers["experiments.singleflight_hit_ratio"] = 0
	if hits+misses > 0 {
		layers["experiments.singleflight_hit_ratio"] = hits / (hits + misses)
	}
	busy := time.Duration(o.reg.Counter("experiments.workers.busy_ns").Value()).Seconds()
	wall := o.reg.Gauge("experiments.runall.wall_seconds").Value()
	workers := o.reg.Gauge("experiments.workers.count").Value()
	layers["experiments.pool_util"], layers["experiments.tail_idle_s"] = 0, 0
	if wall > 0 && workers > 0 {
		layers["experiments.pool_util"] = busy / (wall * workers)
		layers["experiments.tail_idle_s"] = wall - busy/workers
	}
	var render time.Duration
	for _, id := range renderFigs {
		render += o.tr.selfTime(id)
	}
	layers["experiments.render_s"] = render.Seconds()
}

// notApplicable zeroes the per-layer metrics a workload does not exercise;
// layers.json says which workload each metric moves on.
func notApplicable(layers map[string]float64, names ...string) {
	for _, n := range names {
		layers[n] = 0
	}
}

var supervisorMetrics = []string{
	"supervisor.point_overhead_ms.p50", "supervisor.first_point_overhead_ms",
	"supervisor.restarts", "supervisor.crashes",
}

// traceFig6 is the traced fig6-full run: Figure 6 on an in-process Runner,
// then a replay of its 107 points.
func traceFig6(te *traceEnv) (*traced, error) {
	tr := newTracer(fmt.Sprintf("fig6-full-seed%d", te.seed))
	root := tr.begin("fig6-full", 0)
	var out bytes.Buffer
	o := newObserved(tr, &out, false, te.seed)
	start := time.Now()
	figID, err := o.figure("fig6", root)
	if err != nil {
		return nil, err
	}
	t := &traced{wall: time.Since(start), layers: map[string]float64{}, spans: tr}
	tr.finish(root, nil)
	t.attempted = len(o.pts)
	if out.String() != te.cliText {
		t.fault(len(o.pts), "traced Figure 6 text differs from the CLI's")
	}
	o.runnerLayers(t.layers, []int{figID})
	if _, _, err := replayLayers(t, o, false, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	notApplicable(t.layers, "experiments.uncached_fig_s", "experiments.diskcache_load_ms.p50", "metrics.journal_record_us.p50")
	notApplicable(t.layers, supervisorMetrics...)
	return t, nil
}

// paperOrder is the order `experiments -all` renders the figures in.
var paperOrder = []string{
	"fig1", "fig5", "fig6", "fig7", "fig8", "mem", "fig9", "fig10", "fig11",
	"ablation-sampling", "ablation-mlp", "dvfs", "thermal-gc", "hpm-power", "dwell",
}

// uncachedFigures characterize outside Runner.Run, so no cache, flight
// table or worker sees their points.
var uncachedFigures = map[string]bool{
	"ablation-sampling": true, "ablation-mlp": true, "dvfs": true, "hpm-power": true, "dwell": true,
}

// traceQuickAll is the traced quick-all-isolated run: every quick figure
// on a Runner with the CLI's supervisor, fresh cache and per-record-sync
// journal; then a second Runner served from that cache, Journal.Record
// timed on a scratch file, an in-process replay of every point, and every
// point again through Supervisor.Run.
func traceQuickAll(te *traceEnv) (*traced, error) {
	names := append([]string(nil), paperOrder...)
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(experiments.FigureNames(), ",") {
		return nil, fmt.Errorf("the figure list changed: have %v", experiments.FigureNames())
	}
	tr := newTracer(fmt.Sprintf("quick-all-isolated-seed%d", te.seed))
	root := tr.begin("quick-all-isolated", 0)
	var out bytes.Buffer
	o := newObserved(tr, &out, true, te.seed)
	sup, err := supervisor.New(supervisor.Config{
		Argv: []string{te.bins.experiments, "-worker"}, Workers: isolateWorkers,
		Metrics: o.reg, Stderr: os.Stderr,
	})
	if err != nil {
		return nil, err
	}
	defer sup.Close()
	jnl, err := metrics.OpenJournal(filepath.Join(te.dir, "traced-journal.jsonl"))
	if err != nil {
		return nil, err
	}
	cacheDir := filepath.Join(te.dir, "traced-cache")
	o.r.Supervisor, o.r.CacheDir, o.r.Journal = sup, cacheDir, jnl

	figText := map[string]string{}
	var cachedFigs []int
	var uncached time.Duration
	start := time.Now()
	for _, name := range paperOrder {
		n := out.Len()
		id, err := o.figure(name, root)
		if err != nil {
			jnl.Close()
			return nil, err
		}
		figText[name] = out.String()[n:]
		if uncachedFigures[name] {
			uncached += tr.get(id).dur()
		} else {
			cachedFigs = append(cachedFigs, id)
		}
	}
	sup.Close()
	t := &traced{wall: time.Since(start), layers: map[string]float64{}, spans: tr}
	if err := jnl.Close(); err != nil {
		return nil, err
	}
	tr.finish(root, nil)
	t.attempted = len(o.pts)
	if out.String() != te.cliText {
		t.fault(len(o.pts), "traced quick -all text differs from the CLI's")
	}
	o.runnerLayers(t.layers, cachedFigs)
	t.layers["experiments.uncached_fig_s"] = uncached.Seconds()

	if err := warmPass(t, tr, te, cacheDir, figText); err != nil {
		return nil, err
	}
	if err := timeJournal(t, tr, filepath.Join(te.dir, "journal-bench.jsonl"), o.pts); err != nil {
		return nil, err
	}
	// Serial, like the supervisor pass it is compared with.
	recs, got, err := replayLayers(t, o, true, 1)
	if err != nil {
		return nil, err
	}
	if err := supervisorPass(t, tr, te, o.reg, recs, got); err != nil {
		return nil, err
	}
	t.layers["supervisor.restarts"] = float64(o.reg.Counter("supervisor.restarts").Value())
	crashes := int64(0)
	for _, n := range o.reg.Names() {
		if strings.HasPrefix(n, "supervisor.crashes.") {
			crashes += o.reg.Counter(n).Value()
		}
	}
	t.layers["supervisor.crashes"] = float64(crashes)
	return t, nil
}

// supervisorPass runs every replayed point again, one at a time, through
// Supervisor.Run on a fresh one-worker supervisor, and compares each call
// with the serial in-process replay of the same point. The first call also
// spawns the worker, completes the handshake and warms its heap.
func supervisorPass(t *traced, tr *tracer, te *traceEnv, reg *metrics.Registry, recs []pointRec, got []*replayed) error {
	sup, err := supervisor.New(supervisor.Config{
		Argv: []string{te.bins.experiments, "-worker"}, Workers: 1, Metrics: reg, Stderr: os.Stderr,
	})
	if err != nil {
		return err
	}
	defer sup.Close()
	root := tr.begin("supervisor pass", 0)
	var overhead []float64
	for i, pr := range recs {
		p := pr.p
		spec := pointproto.Spec{
			Bench: p.Bench.Name, Flavor: p.Flavor.String(), Collector: p.Collector, HeapMB: p.HeapMB,
			Platform: p.Platform.Name, S10: p.S10, FanOff: p.FanOff, Seed: te.seed, Quick: true,
		}
		start := time.Now()
		payload, err := sup.Run(context.Background(), spec)
		end := time.Now()
		if err != nil {
			t.fault(1, "supervisor pass %s: %v", p, err)
			continue
		}
		tr.add("supervisor.Run "+p.String(), root, start, end, map[string]int64{"payload_bytes": int64(len(payload))})
		inProcess := got[i].doneAt.Sub(got[i].start)
		overhead = append(overhead, float64(end.Sub(start)-inProcess)/float64(time.Millisecond))
	}
	tr.finish(root, nil)
	t.attempted += len(recs)
	if len(overhead) < 2 {
		return fmt.Errorf("supervisor pass: %d of %d points ran", len(overhead), len(recs))
	}
	p50 := stats.Median(overhead[1:])
	t.layers["supervisor.point_overhead_ms.p50"] = p50
	t.layers["supervisor.first_point_overhead_ms"] = overhead[0] - p50
	return nil
}

// warmPass renders every cached figure again from a second Runner served
// entirely from the cache the traced run wrote, and times each load.
func warmPass(t *traced, tr *tracer, te *traceEnv, cacheDir string, figText map[string]string) error {
	root := tr.begin("warm cache pass", 0)
	var out bytes.Buffer
	r := experiments.NewRunner(&out)
	r.Quick, r.Seed, r.CacheDir = true, te.seed, cacheDir
	var mu sync.Mutex
	var loads []float64
	notDisk := 0
	r.OnPoint = func(p experiments.Point, ev experiments.PointEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Source == "disk" {
			loads = append(loads, ev.DurationMS)
		} else {
			notDisk++
		}
	}
	for _, name := range paperOrder {
		if uncachedFigures[name] {
			continue
		}
		n := out.Len()
		mu.Lock()
		before := len(loads) + notDisk
		mu.Unlock()
		if err := r.RunFigure(name); err != nil {
			return err
		}
		if out.String()[n:] != figText[name] {
			mu.Lock()
			points := len(loads) + notDisk - before
			mu.Unlock()
			t.fault(max(points, 1), "warm-cache %s text differs from the cold run's", name)
		}
	}
	tr.finish(root, map[string]int64{"loads": int64(len(loads))})
	t.attempted += len(loads) + notDisk
	if notDisk > 0 {
		t.fault(notDisk, "%d point(s) of the warm pass missed the cache", notDisk)
	}
	t.layers["experiments.diskcache_load_ms.p50"] = stats.Median(loads)
	return nil
}

// timeJournal records the run's point events on a scratch journal under
// the default per-record fsync and times each Record call.
func timeJournal(t *traced, tr *tracer, path string, pts []pointRec) error {
	j, err := metrics.OpenJournal(path)
	if err != nil {
		return err
	}
	root := tr.begin("journal records", 0)
	var us []float64
	for _, pr := range pts {
		t0 := time.Now()
		if err := j.Record(pr.ev); err != nil {
			j.Close()
			return err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	tr.finish(root, map[string]int64{"records": int64(len(us))})
	t.layers["metrics.journal_record_us.p50"] = stats.Median(us)
	return j.Close()
}
