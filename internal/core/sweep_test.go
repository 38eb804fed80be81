package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"

	"jvmpower/internal/component"
	"jvmpower/internal/daq"
	"jvmpower/internal/metrics"
	"jvmpower/internal/platform"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// sweepRun is a tenth of a benchmark's profile (to keep the tests fast) on
// the P6 under Jikes with collector col, at seed 1 and no heap.
func sweepRun(t *testing.T, name, col string) RunConfig {
	t.Helper()
	bench, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return RunConfig{
		Platform: platform.P6(),
		VM:       vm.Config{Flavor: vm.Jikes, Collector: col, Seed: 1},
		Program:  bench.Program(),
		Profile:  bench.Profile.Scale(0.1),
		FanOn:    true,
	}
}

// TestCharacterizeSweepMatchesCharacterize runs benchmark profiles at
// several heap sizes once as a lockstep sweep of one lane per heap and
// once as one Characterize per heap, at two seeds: every heap's
// decomposition, GC statistics, loaded-class count and error must be the
// same. The 2 MB lanes run out of memory mid-run, so the sweep also
// characterizes them again on their own.
func TestCharacterizeSweepMatchesCharacterize(t *testing.T) {
	heapsMB := []int{2, 4, 32}
	for _, name := range []string{"_213_javac", "_209_db"} {
		for _, seed := range []uint64{1, 2} {
			cfg := sweepRun(t, name, "SemiSpace")
			cfg.VM.Seed = seed
			lanes := make([]RunConfig, len(heapsMB))
			for i, mb := range heapsMB {
				lanes[i] = cfg
				lanes[i].VM.HeapSize = units.ByteSize(mb) * units.MB
			}
			sweep, errs := CharacterizeSweep(lanes)
			for i, alone := range lanes {
				tag := fmt.Sprintf("%s seed %d %v", name, seed, alone.VM.HeapSize)
				want, wantErr := Characterize(alone)
				if fmt.Sprint(errs[i]) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: sweep error %v, alone %v", tag, errs[i], wantErr)
				}
				got := sweep[i]
				if got.Decomposition != want.Decomposition {
					t.Fatalf("%s: decompositions differ:\n%+v\nvs\n%+v", tag, got.Decomposition, want.Decomposition)
				}
				if got.GCStats != want.GCStats {
					t.Fatalf("%s: GC stats differ: %+v vs %+v", tag, got.GCStats, want.GCStats)
				}
				if got.LoadedClasses != want.LoadedClasses {
					t.Fatalf("%s: loaded classes differ: %d vs %d", tag, got.LoadedClasses, want.LoadedClasses)
				}
			}
		}
	}
}

// TestCharacterizeSweepLanesMatchSeparateRuns runs lanes that differ in
// what only a meter reads, at one heap and at several, as one
// CharacterizeSweep and as one Characterize per lane. Each lane must get
// the Outcome its own run gives (compared as JSON, the disk cache's
// shape), the same ground truth per component, the same DAQ sample count
// and, for a lane with a trace sink, the same trace. In the third case the
// 2 MB heap's lanes leave the lockstep run and are characterized again as
// their own sweep; in the last a lane whose platform no meter accepts
// fails alone, and the other runs without it.
func TestCharacterizeSweepLanesMatchSeparateRuns(t *testing.T) {
	nominal := func(*RunConfig) {}
	gcSlow := func(c *RunConfig) { c.DVFSPolicy = GCLowFrequencyPolicy(0.375) }
	daq200 := func(c *RunConfig) { c.Platform.DAQPeriod = 200 * time.Microsecond }
	noMLP := func(c *RunConfig) { c.Platform.CPU.MLPSupport = 0 }
	ideal := func(c *RunConfig) { c.IdealChannels = true }
	noDAQ := func(c *RunConfig) { c.Platform.DAQPeriod = 0 }
	traced := func(c *RunConfig) { c.TraceSink = &daq.TraceRecorder{} }
	cases := []struct {
		name     string
		bench    string
		col      string
		heapsMB  []int
		variants []func(*RunConfig)
		// runs is the characterize runs the sweep makes: one per lane that
		// joins its VM run, and one per lane characterized again.
		runs int64
	}{
		{"SemiSpace two heaps", "_213_javac", "SemiSpace", []int{16, 32}, []func(*RunConfig){nominal, gcSlow, daq200}, 6},
		{"GenCopy one heap", "_209_db", "GenCopy", []int{32}, []func(*RunConfig){nominal, noMLP, ideal, traced}, 4},
		{"SemiSpace lane leaves", "_213_javac", "SemiSpace", []int{2, 32}, []func(*RunConfig){nominal, daq200}, 4 + 2},
		{"meter fails alone", "_209_db", "GenCopy", []int{32}, []func(*RunConfig){noDAQ, nominal}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			base := sweepRun(t, c.bench, c.col)
			base.Metrics = reg
			var lanes []RunConfig
			for _, mb := range c.heapsMB {
				for _, vary := range c.variants {
					l := base
					l.VM.HeapSize = units.ByteSize(mb) * units.MB
					vary(&l)
					lanes = append(lanes, l)
				}
			}
			sweep, errs := CharacterizeSweep(lanes)
			if runs := reg.Counter("core.characterize.runs").Value(); runs != c.runs {
				t.Fatalf("the sweep made %d characterize runs, want %d", runs, c.runs)
			}
			for i, alone := range lanes {
				alone.Metrics = nil
				tag := fmt.Sprintf("lane %d (%v)", i, alone.VM.HeapSize)
				var trace *daq.TraceRecorder
				if alone.TraceSink != nil {
					trace = &daq.TraceRecorder{}
					alone.TraceSink = trace
				}
				want, wantErr := Characterize(alone)
				if fmt.Sprint(errs[i]) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: sweep error %v, alone %v", tag, errs[i], wantErr)
				}
				if wantErr != nil {
					continue
				}
				got := sweep[i]
				if g, w := outcomeJSON(t, got.Outcome), outcomeJSON(t, want.Outcome); !bytes.Equal(g, w) {
					t.Fatalf("%s: outcomes differ:\n%s\nvs\n%s", tag, g, w)
				}
				for id := component.ID(0); id < component.N; id++ {
					if g, w := got.Meter.TrueCPUEnergy(id), want.Meter.TrueCPUEnergy(id); g != w {
						t.Fatalf("%s: true %v CPU energy %v, alone %v", tag, id, g, w)
					}
					if g, w := got.Meter.TrueTime(id), want.Meter.TrueTime(id); g != w {
						t.Fatalf("%s: true %v time %v, alone %v", tag, id, g, w)
					}
				}
				if g, w := got.Meter.DAQSamples(), want.Meter.DAQSamples(); g != w {
					t.Fatalf("%s: %d DAQ samples, alone %d", tag, g, w)
				}
				if trace != nil && (len(trace.Trace) == 0 || !slices.Equal(lanes[i].TraceSink.(*daq.TraceRecorder).Trace, trace.Trace)) {
					t.Fatalf("%s: the sweep's trace differs from the lane's own run", tag)
				}
			}
		})
	}
}

func outcomeJSON(t *testing.T, o Outcome) []byte {
	t.Helper()
	b, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCharacterizeSweepRejectsForeignLanes: lanes that disagree with the
// first on what the VM reads, several heaps under a plan that cannot run
// them in lockstep, or a trace sink in a sweep of several heaps, fail
// every lane with an error and run nothing.
func TestCharacterizeSweepRejectsForeignLanes(t *testing.T) {
	db, err := workloads.ByName("_209_db")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		col  string
		vary func(*RunConfig)
	}{
		{"program", "SemiSpace", func(c *RunConfig) { c.Program = db.Program() }},
		{"profile", "SemiSpace", func(c *RunConfig) { c.Profile = c.Profile.Scale(0.5) }},
		{"flavor", "SemiSpace", func(c *RunConfig) { c.VM.Flavor = vm.Kaffe }},
		{"collector", "SemiSpace", func(c *RunConfig) { c.VM.Collector = "GenCopy" }},
		{"seed", "SemiSpace", func(c *RunConfig) { c.VM.Seed = 2 }},
		{"two heaps under GenCopy", "GenCopy", func(c *RunConfig) { c.VM.HeapSize = 48 * units.MB }},
		{"trace sink over two heaps", "SemiSpace", func(c *RunConfig) {
			c.VM.HeapSize = 48 * units.MB
			c.TraceSink = &daq.TraceRecorder{}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			first := sweepRun(t, "_213_javac", c.col)
			first.VM.HeapSize = 32 * units.MB
			first.Metrics = reg
			other := first
			c.vary(&other)
			res, errs := CharacterizeSweep([]RunConfig{first, other, first})
			for i := range errs {
				if errs[i] == nil || res[i].Meter != nil {
					t.Fatalf("lane %d: error %v, meter %v; want an error and no run", i, errs[i], res[i].Meter)
				}
			}
			if runs := reg.Counter("core.characterize.runs").Value(); runs != 0 {
				t.Fatalf("%d characterize runs, want none", runs)
			}
		})
	}
}
