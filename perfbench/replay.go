package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"jvmpower/internal/analysis"
	"jvmpower/internal/component"
	"jvmpower/internal/core"
	"jvmpower/internal/cpu"
	"jvmpower/internal/experiments"
	"jvmpower/internal/gc"
	"jvmpower/internal/stats"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// tap is the vm.Executor a replay hands the VM: the paper's component-ID
// attribution applied to the simulator itself. The VM's host time between
// two Executor calls is charged to the component of the slice that ends the
// interval, as a component-ID register read at every slice would charge
// it; time inside the calls is the Meter's. It shares the paper's skew:
// allocation that leads up to a GC trigger counts as GC. Time after the
// last slice goes to the last component written, which the register would
// still hold.
type tap struct {
	meter  *core.Meter
	last   time.Time
	lastID component.ID
	self   [component.N]time.Duration
	inside time.Duration // in the Meter
	slices int64
}

func (t *tap) Execute(id component.ID, s cpu.Slice) {
	now := t.enter(id)
	t.meter.Execute(id, s)
	t.leave(now)
}

func (t *tap) ExecuteMeasured(id component.ID, instructions int64, prof cpu.MissProfile, ifetchMisses int64) {
	now := t.enter(id)
	t.meter.ExecuteMeasured(id, instructions, prof, ifetchMisses)
	t.leave(now)
}

func (t *tap) enter(id component.ID) time.Time {
	now := time.Now()
	t.self[id] += now.Sub(t.last)
	t.lastID = id
	t.slices++
	return now
}

func (t *tap) leave(entered time.Time) {
	t.last = time.Now()
	t.inside += t.last.Sub(entered)
}

// finish charges the time since the last slice and returns the end time.
func (t *tap) finish() time.Time {
	now := time.Now()
	t.self[t.lastID] += now.Sub(t.last)
	t.last = now
	return now
}

// replayed is one point run again through the tap: its decomposition,
// what it counted, and when each step ended.
type replayed struct {
	dec        analysis.Decomposition
	tap        tap
	gc         gc.Stats
	daqSamples int64
	// start, then the ends of core.NewMeter, vm.New, RunProfile and
	// analysis.Build.
	start, meterAt, vmAt, runAt, doneAt time.Time
}

// pointProfile is the behaviour profile the Runner characterizes p with.
func pointProfile(p experiments.Point, quick bool) vm.BehaviorProfile {
	profile := p.Bench.Profile
	if p.S10 {
		profile = workloads.S10Profile(p.Bench)
	}
	if quick {
		profile = profile.Scale(0.25)
	}
	return profile
}

// replayPoint characterizes p the way core.Characterize does, with the VM
// driving the tap instead of the Meter.
func replayPoint(p experiments.Point, quick bool, seed uint64) (*replayed, error) {
	profile := pointProfile(p, quick)
	rp := &replayed{start: time.Now()}
	agg := analysis.NewAggregator(p.Platform.DAQPeriod)
	meter, err := core.NewMeter(p.Platform, core.MeterOptions{Sink: agg, FanOn: !p.FanOff, Seed: seed})
	if err != nil {
		return nil, err
	}
	rp.meterAt = time.Now()
	rp.tap.meter = meter
	machine, err := vm.New(vm.Config{
		Flavor: p.Flavor, Collector: p.Collector,
		HeapSize: units.ByteSize(p.HeapMB) * units.MB, Seed: seed,
	}, p.Bench.Program(), &rp.tap)
	if err != nil {
		return nil, err
	}
	defer machine.ReleaseResources()
	rp.vmAt = time.Now()
	rp.tap.last = rp.vmAt
	if err := machine.RunProfile(profile); err != nil {
		return nil, fmt.Errorf("replay %s: %w", p, err)
	}
	rp.runAt = rp.tap.finish()
	rp.dec = analysis.Build(profile.Name, p.Flavor.String(), machine.Collector().Name(),
		p.Platform.Name, p.HeapMB, agg, meter.HPM())
	rp.doneAt = time.Now()
	rp.gc = machine.Collector().Stats()
	rp.daqSamples = meter.DAQSamples()
	return rp, nil
}

// checkReplay reports whether the replay reproduced the Runner's
// decomposition of the point exactly.
func checkReplay(p experiments.Point, runner, replay analysis.Decomposition) error {
	if runner != replay {
		return fmt.Errorf("%s: the replay's decomposition differs from the Runner's", p)
	}
	return nil
}

// replayLayers replays every point the traced Runner completed on
// `workers` goroutines, checks each against the Runner's result, reports
// the per-layer split of the replay time, and returns the replayed points.
func replayLayers(t *traced, o *observed, quick bool, workers int) ([]pointRec, []*replayed, error) {
	var recs []pointRec
	want := map[int]analysis.Decomposition{}
	for _, pr := range o.pts {
		if pr.ev.Outcome != "ok" {
			continue
		}
		res, err := o.r.Run(pr.p)
		if err != nil {
			return nil, nil, err
		}
		want[len(recs)] = res.Decomposition
		recs = append(recs, pr)
		pr.p.Bench.Program() // built here, before the goroutines share it
	}
	root := o.tr.begin("replay", 0)
	got := make([]*replayed, len(recs))
	errs := make([]error, len(recs))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				got[i], errs[i] = replayPoint(recs[i].p, quick, o.r.Seed)
			}
		}()
	}
	for i := range recs {
		next <- i
	}
	close(next)
	wg.Wait()
	runtime.ReadMemStats(&m1)
	o.tr.finish(root, nil)

	var self [component.N]time.Duration
	var inMeter, total time.Duration
	var slices, daqSamples int64
	var gcs gc.Stats
	var newMS, buildUS []float64
	for i, rp := range got {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		if err := checkReplay(recs[i].p, want[i], rp.dec); err != nil {
			t.fault(1, "%v", err)
		}
		id := o.tr.add("replay "+recs[i].p.String(), root, rp.start, rp.doneAt, map[string]int64{
			"slices": rp.tap.slices, "gc.collections": rp.gc.Collections, "daq.samples": rp.daqSamples,
		})
		o.tr.add("core.NewMeter", id, rp.start, rp.meterAt, nil)
		o.tr.add("vm.New", id, rp.meterAt, rp.vmAt, nil)
		o.tr.add("vm.RunProfile", id, rp.vmAt, rp.runAt, nil)
		o.tr.add("analysis.Build", id, rp.runAt, rp.doneAt, nil)
		for c, d := range rp.tap.self {
			self[c] += d
		}
		inMeter += rp.tap.inside + rp.meterAt.Sub(rp.start)
		total += rp.doneAt.Sub(rp.start)
		slices += rp.tap.slices
		daqSamples += rp.daqSamples
		gcs.Collections += rp.gc.Collections
		gcs.ObjectsCopied += rp.gc.ObjectsCopied
		gcs.ObjectsScanned += rp.gc.ObjectsScanned
		gcs.BytesCopied += rp.gc.BytesCopied
		newMS = append(newMS, float64(rp.vmAt.Sub(rp.meterAt))/float64(time.Millisecond))
		buildUS = append(buildUS, float64(rp.doneAt.Sub(rp.runAt))/float64(time.Microsecond))
	}
	clJIT := self[component.ClassLoader] + self[component.BaseCompiler] + self[component.OptCompiler] +
		self[component.JITCompiler] + self[component.Scheduler]
	n := float64(max(len(recs), 1))
	l := t.layers
	l["vm.app_s"] = self[component.App].Seconds()
	l["vm.gc_s"] = self[component.GC].Seconds()
	l["vm.cl_jit_s"] = clJIT.Seconds()
	l["vm.new_ms"] = stats.Median(newMS)
	l["vm.slices"] = float64(slices)
	l["gc.collections"] = float64(gcs.Collections)
	l["gc.objects_copied"] = float64(gcs.ObjectsCopied)
	l["gc.objects_scanned"] = float64(gcs.ObjectsScanned)
	l["gc.bytes_copied_mb"] = float64(gcs.BytesCopied) / float64(units.MB)
	l["daq.samples"] = float64(daqSamples)
	l["core.meter_s"] = inMeter.Seconds()
	l["analysis.build_us"] = stats.Median(buildUS)
	l["runtime.alloc_mb_per_point"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(units.MB) / n
	l["runtime.mallocs_per_point"] = float64(m1.Mallocs-m0.Mallocs) / n
	l["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	// What the four totals above leave out is vm.New, analysis.Build and
	// anything a later change adds outside RunProfile.
	covered := self[component.App] + self[component.GC] + clJIT + inMeter
	l["trace.replay_coverage_pct"] = 0
	if total > 0 {
		l["trace.replay_coverage_pct"] = 100 * covered.Seconds() / total.Seconds()
	}
	return recs, got, nil
}
