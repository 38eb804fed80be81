package core

import (
	"fmt"
	"testing"

	"jvmpower/internal/platform"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// TestCharacterizeSweepMatchesCharacterize runs benchmark profiles (a
// tenth of their size, to keep the test fast) at several heap sizes once
// as a lockstep sweep and once as one Characterize per heap, at two seeds:
// every heap's decomposition, GC statistics, loaded-class count and error
// must be the same. The 2 MB lanes run out of memory mid-run, so the sweep
// also characterizes them again on their own.
func TestCharacterizeSweepMatchesCharacterize(t *testing.T) {
	heapsMB := []int{2, 4, 32}
	heaps := make([]units.ByteSize, len(heapsMB))
	for i, mb := range heapsMB {
		heaps[i] = units.ByteSize(mb) * units.MB
	}
	for _, name := range []string{"_213_javac", "_209_db"} {
		bench, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 2} {
			cfg := RunConfig{
				Platform: platform.P6(),
				VM:       vm.Config{Flavor: vm.Jikes, Collector: "SemiSpace", Seed: seed},
				Program:  bench.Program(),
				Profile:  bench.Profile.Scale(0.1),
				FanOn:    true,
			}
			sweep, errs := CharacterizeSweep(cfg, heaps)
			for i, h := range heaps {
				tag := fmt.Sprintf("%s seed %d %v", name, seed, h)
				alone := cfg
				alone.VM.HeapSize = h
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
