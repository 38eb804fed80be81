package vm_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"jvmpower/internal/component"
	"jvmpower/internal/cpu"
	"jvmpower/internal/gc"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// call is one Executor call as a recorder saw it.
type call struct {
	id           component.ID
	slice        cpu.Slice
	instructions int64
	prof         cpu.MissProfile
	ifetchMisses int64
}

// recorder is an Executor that keeps every call in order.
type recorder struct{ calls []call }

func (r *recorder) Execute(id component.ID, s cpu.Slice) {
	r.calls = append(r.calls, call{id: id, slice: s})
}

func (r *recorder) ExecuteMeasured(id component.ID, instructions int64, prof cpu.MissProfile, ifetchMisses int64) {
	r.calls = append(r.calls, call{id: id, instructions: instructions, prof: prof, ifetchMisses: ifetchMisses})
}

// TestLockstepMatchesSeparateRuns runs quick benchmark profiles under
// SemiSpace at 6, 12 and 24 MB, once as one lockstep VM and once as three
// VMs of their own, and compares what each heap size's executor received:
// every slice, in order, and the collector's statistics. A lane whose
// allocation fails leaves the lockstep run (the 6 MB lanes of _209_db,
// _213_javac, pmd and euler do): it must have received a prefix of its own
// run's slices, and its own run must fail out of memory too. The
// benchmarks are the quick figures' five and pmd.
func TestLockstepMatchesSeparateRuns(t *testing.T) {
	heaps := []units.ByteSize{6 * units.MB, 12 * units.MB, 24 * units.MB}
	left := map[string]bool{}
	for _, name := range []string{"_213_javac", "_209_db", "_222_mpegaudio", "fop", "euler", "pmd"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(b.Name, func(t *testing.T) {
			cfg := vm.Config{Flavor: vm.Jikes, Collector: "SemiSpace", Seed: 1}
			profile := b.Profile.Scale(0.25)
			lanes := make([]vm.Lane, len(heaps))
			recs := make([]*recorder, len(heaps))
			for i, h := range heaps {
				recs[i] = &recorder{}
				lanes[i] = vm.Lane{HeapSize: h, Exec: recs[i]}
			}
			lock, err := vm.NewLockstep(cfg, b.Program(), lanes)
			if err != nil {
				t.Fatal(err)
			}
			lockErr := lock.RunProfile(profile)

			for i, h := range heaps {
				tag := fmt.Sprintf("%v", h)
				alone := &recorder{}
				cfg.HeapSize = h
				v, err := vm.New(cfg, b.Program(), alone)
				if err != nil {
					t.Fatal(err)
				}
				aloneErr := v.RunProfile(profile)
				if laneErr := lock.LaneLeft(i); laneErr != nil {
					left[b.Name+"/"+tag] = true
					if !errors.Is(laneErr, gc.ErrOutOfMemory) || !errors.Is(aloneErr, gc.ErrOutOfMemory) {
						t.Fatalf("%s: lane left with %v; its own run ended with %v", tag, laneErr, aloneErr)
					}
					if len(recs[i].calls) > len(alone.calls) || !reflect.DeepEqual(recs[i].calls, alone.calls[:len(recs[i].calls)]) {
						t.Fatalf("%s: the lane's %d slices are not a prefix of its own run's %d", tag, len(recs[i].calls), len(alone.calls))
					}
					continue
				}
				if fmt.Sprint(lockErr) != fmt.Sprint(aloneErr) {
					t.Fatalf("%s: lockstep run ended with %v, its own run with %v", tag, lockErr, aloneErr)
				}
				if len(recs[i].calls) != len(alone.calls) {
					t.Fatalf("%s: %d slices in lockstep, %d alone", tag, len(recs[i].calls), len(alone.calls))
				}
				for j := range alone.calls {
					if recs[i].calls[j] != alone.calls[j] {
						t.Fatalf("%s: slice %d differs:\n%+v\nvs\n%+v", tag, j, recs[i].calls[j], alone.calls[j])
					}
				}
				if got, want := lock.LaneCollector(i).Stats(), v.Collector().Stats(); got != want {
					t.Fatalf("%s: GC stats differ:\n%+v\nvs\n%+v", tag, got, want)
				}
			}
		})
	}
	for _, name := range []string{"_209_db/6MB", "_213_javac/6MB", "pmd/6MB", "euler/6MB"} {
		if !left[name] {
			t.Errorf("%s did not leave its lockstep run: the test no longer covers a lane that runs out of memory", name)
		}
	}
}

// TestLockstepNeedsSemiSpace checks that only SemiSpace runs more than one
// heap size in lockstep, and that the interpreter, whose caches see object
// addresses, refuses a lockstep VM.
func TestLockstepNeedsSemiSpace(t *testing.T) {
	b, err := workloads.ByName("_213_javac")
	if err != nil {
		t.Fatal(err)
	}
	two := []vm.Lane{{HeapSize: 8 * units.MB, Exec: &recorder{}}, {HeapSize: 16 * units.MB, Exec: &recorder{}}}
	for _, col := range []string{"MarkSweep", "GenCopy", "GenMS"} {
		if _, err := vm.NewLockstep(vm.Config{Flavor: vm.Jikes, Collector: col}, b.Program(), two); err == nil {
			t.Errorf("%s accepted two lockstep lanes", col)
		}
	}
	v, err := vm.NewLockstep(vm.Config{Flavor: vm.Jikes, Collector: "SemiSpace"}, b.Program(), two)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Interpret(cpu.CacheConfig{}, nil, 0); err == nil {
		t.Error("the interpreter ran a lockstep VM")
	}
}
