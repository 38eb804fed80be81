// Quickstart: characterize one benchmark on one VM configuration and print
// the per-component energy decomposition — the basic unit of the paper's
// methodology.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"jvmpower/internal/analysis"
	"jvmpower/internal/component"
	"jvmpower/internal/core"
	"jvmpower/internal/platform"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// main runs the _213_javac analog on the Jikes RVM with a SemiSpace
// collector at a 32 MB heap — the configuration where the paper measures
// JVM energy reaching 60% of the total.
func main() {
	bench, err := workloads.ByName("_213_javac")
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Characterize(core.RunConfig{
		Platform: platform.P6(),
		VM: vm.Config{
			Flavor:    vm.Jikes,
			Collector: "SemiSpace",
			HeapSize:  32 * units.MB,
			Seed:      1,
		},
		Program: bench.Program(),
		Profile: bench.Profile,
		FanOn:   true,
	})
	if err != nil {
		log.Fatal(err)
	}
	d := &res.Decomposition

	fmt.Printf("%s on %s — %s, %s collector, %d MB heap\n\n",
		d.Benchmark, d.Platform, d.VM, d.Collector, d.HeapMB)
	t := analysis.NewTable("Component", "Energy", "Share", "AvgPower", "IPC")
	for _, id := range component.JikesComponents() {
		t.AddRow(id.String(),
			d.CPUEnergy[id].String(),
			analysis.Pct(d.CPUEnergyFrac(id)),
			d.AvgPower[id].String(),
			fmt.Sprintf("%.2f", d.IPC(id)))
	}
	fmt.Print(t)
	fmt.Printf("\nJVM energy: %s of processor energy (paper: up to 60%% for this configuration)\n",
		analysis.Pct(d.JVMEnergyFrac()))
	fmt.Printf("EDP: %v over %v; %d collections\n",
		d.EDP, d.TotalTime.Round(1e6), res.GCStats.Collections)
}
