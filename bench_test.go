// Package jvmpower's benchmark harness: one testing.B benchmark per table
// and figure in the paper's evaluation (each regenerates the figure's data
// through the experiment runners, in quick mode so a full -bench=. pass
// stays tractable), plus micro-benchmarks of the substrate's hot paths.
//
// Regenerate the full-scale figures with:
//
//	go run ./cmd/experiments -all
package jvmpower_test

import (
	"context"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"jvmpower/internal/core"
	"jvmpower/internal/cpu"
	"jvmpower/internal/experiments"
	"jvmpower/internal/faultinject"
	"jvmpower/internal/gc"
	"jvmpower/internal/heap"
	"jvmpower/internal/metrics"
	"jvmpower/internal/platform"
	"jvmpower/internal/supervisor"
	"jvmpower/internal/units"
	"jvmpower/internal/vm"
	"jvmpower/internal/workloads"
)

// benchFigure runs one figure in quick mode per iteration. Under -iters
// each iteration's wall-clock time is appended to the JSONL series the
// statistics layer segments into warmup and steady state.
func benchFigure(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		r := experiments.NewRunner(io.Discard)
		r.Quick = true
		if err := r.RunFigure(name); err != nil {
			b.Fatal(err)
		}
		logIter(b, time.Since(t0))
	}
}

// BenchmarkFig1Thermal regenerates Figure 1: the fan-on/fan-off temperature
// trajectories and the 99 °C emergency throttle.
func BenchmarkFig1Thermal(b *testing.B) { benchFigure(b, "fig1") }

// BenchmarkFig5Benchmarks regenerates Figure 5: the benchmark table.
func BenchmarkFig5Benchmarks(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFig6EnergyDecomposition regenerates Figure 6: per-component
// energy shares under Jikes RVM + SemiSpace.
func BenchmarkFig6EnergyDecomposition(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7EDP regenerates Figure 7: EDP vs heap size for the four
// collectors.
func BenchmarkFig7EDP(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8Power regenerates Figure 8: average and peak power per
// component.
func BenchmarkFig8Power(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkMemoryEnergy regenerates the Section VI-B memory-energy shares.
func BenchmarkMemoryEnergy(b *testing.B) { benchFigure(b, "mem") }

// BenchmarkFig9Kaffe regenerates Figure 9: Kaffe's energy distribution.
func BenchmarkFig9Kaffe(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkFig10KaffeEDP regenerates Figure 10: Kaffe EDP vs heap size.
func BenchmarkFig10KaffeEDP(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkFig11Embedded regenerates Figure 11: Kaffe on the PXA255.
func BenchmarkFig11Embedded(b *testing.B) { benchFigure(b, "fig11") }

// BenchmarkFig7EDPInstrumented regenerates Figure 7 with the full
// observability layer enabled — metrics registry wired through the
// dispatcher, core, and DAQ, plus a JSONL journal event per point — so the
// delta against BenchmarkFig7EDP bounds the instrumentation overhead on
// the pipeline's hottest path (the question the RAPL-overhead literature
// asks of software power meters, turned on ourselves). bench.sh's overhead
// mode records both in BENCH_2.json; the budget is <1%.
func BenchmarkFig7EDPInstrumented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		r := experiments.NewRunner(io.Discard)
		r.Quick = true
		r.Metrics = metrics.NewRegistry()
		r.Journal = metrics.NewJournal(io.Discard)
		if err := r.RunFigure("fig7"); err != nil {
			b.Fatal(err)
		}
		if err := r.Journal.Close(); err != nil {
			b.Fatal(err)
		}
		if r.Metrics.Counter("experiments.points.completed").Value() == 0 {
			b.Fatal("instrumented run observed no points")
		}
		logIter(b, time.Since(t0))
	}
}

// BenchmarkFig7EDPFaultsZero regenerates Figure 7 with a fault plan
// attached whose rates are all zero. Plan.Site returns nil injectors for
// all-zero sites, so this exercises exactly the disabled-injector path —
// the nil checks threaded through the DAQ, sense channels, HPM sampler,
// and retry loop — and its delta against BenchmarkFig7EDP bounds the cost
// of having the fault layer compiled in but switched off. bench.sh's
// faults mode records both in BENCH_3.json; the budget is <1%.
func BenchmarkFig7EDPFaultsZero(b *testing.B) {
	plan, err := faultinject.Parse("drop=0,gain=0,jitter=0,fail=0,seed=7")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		r := experiments.NewRunner(io.Discard)
		r.Quick = true
		r.Faults = plan
		if err := r.RunFigure("fig7"); err != nil {
			b.Fatal(err)
		}
		if len(r.Faulted()) != 0 {
			b.Fatal("zero-rate plan degraded points")
		}
		logIter(b, time.Since(t0))
	}
}

// BenchmarkFig7EDPIsolateOff regenerates Figure 7 with the process-isolation
// machinery reachable but disabled: no Supervisor, so every group is
// computed in-process and no figure breaker materializes (they exist only
// under isolation). The delta
// against BenchmarkFig7EDP prices the nil checks isolation threads through
// the dispatch path; bench.sh's isolate mode records both in BENCH_4.json
// along with the PR 3 baseline, and the budget against that baseline is <1%.
func BenchmarkFig7EDPIsolateOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		r := experiments.NewRunner(io.Discard)
		r.Quick = true
		if err := r.RunFigure("fig7"); err != nil {
			b.Fatal(err)
		}
		if r.BreakerTripped("fig7") {
			b.Fatal("breaker materialized without a supervisor")
		}
		logIter(b, time.Since(t0))
	}
}

// BenchmarkFig7EDPFleet regenerates Figure 7 through the socket transport:
// every point dispatched to one of two loopback executor nodes and its
// result gob carried back over TCP. The nodes persist across iterations;
// the supervisor is fresh per iteration, like the Runner, so each
// iteration also pays for dialing and handshaking its nodes, as a CLI run
// does. The delta against BenchmarkFig7EDP prices the coordination
// overhead — framing, gob, scheduling, loopback TCP — on the hottest
// figure path; bench.sh's fleet mode records both in BENCH_7.json. The
// iteration fails unless points actually flowed through the nodes.
func BenchmarkFig7EDPFleet(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	var dones []chan struct{}
	defer func() {
		cancel()
		for _, d := range dones {
			<-d
		}
	}()
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		done := make(chan struct{})
		dones = append(dones, done)
		go func() {
			defer close(done)
			_ = supervisor.Serve(ctx, ln, supervisor.ServeConfig{Handler: experiments.HandleSpec, Stderr: io.Discard})
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		r := experiments.NewRunner(io.Discard)
		r.Quick = true
		reg := metrics.NewRegistry()
		r.Metrics = reg
		sup, err := supervisor.New(supervisor.Config{Nodes: addrs, Metrics: reg, Stderr: io.Discard})
		if err != nil {
			b.Fatal(err)
		}
		r.Supervisor = sup
		err = r.RunFigure("fig7")
		sup.Close()
		if err != nil {
			b.Fatal(err)
		}
		if reg.Counter("supervisor.points.ok").Value() == 0 {
			b.Fatal("no points flowed through the nodes")
		}
		logIter(b, time.Since(t0))
	}
}

// benchFig7Journal regenerates Figure 7 with a real file-backed journal
// under the given sync policy — the durability pricing harness. Unlike
// BenchmarkFig7EDPInstrumented's io.Discard journal, the file is real:
// per-record fsync cost is exactly what is being measured.
func benchFig7Journal(b *testing.B, policy metrics.SyncPolicy) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		j, err := metrics.OpenJournal(filepath.Join(b.TempDir(), "bench.jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		j.SetSync(policy, 0)
		r := experiments.NewRunner(io.Discard)
		r.Quick = true
		r.Journal = j
		if err := r.RunFigure("fig7"); err != nil {
			b.Fatal(err)
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		logIter(b, time.Since(t0))
	}
}

// BenchmarkFig7EDPJournalSyncPoint regenerates Figure 7 journaling to a
// real file with the default per-record group commit (`-journal-sync
// point`): every point event is fsynced before the next point can report.
// The delta against BenchmarkFig7EDPJournalSyncClose is the price of the
// crash-durability default — the number that makes `-journal-sync point`
// a measured claim instead of a hope. bench.sh's sync mode records both
// in BENCH_8.json.
func BenchmarkFig7EDPJournalSyncPoint(b *testing.B) {
	benchFig7Journal(b, metrics.SyncPoint)
}

// BenchmarkFig7EDPJournalSyncClose regenerates Figure 7 journaling to a
// real file under the legacy buffer-until-Close policy (`-journal-sync
// close`) — zero fsyncs until the run ends, zero durability if it dies.
// The baseline the per-point group commit is priced against.
func BenchmarkFig7EDPJournalSyncClose(b *testing.B) {
	benchFig7Journal(b, metrics.SyncClose)
}

// BenchmarkMetricsCounter prices the single-instrument fast path: one
// atomic add, the unit cost every instrumented event pays.
func BenchmarkMetricsCounter(b *testing.B) {
	c := metrics.NewRegistry().Counter("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() != int64(b.N) {
		b.Fatal("count mismatch")
	}
}

// BenchmarkCharacterizeJavac measures one full characterization run (the
// unit of every figure): _213_javac, Jikes + GenCopy, 64 MB, P6.
func BenchmarkCharacterizeJavac(b *testing.B) {
	bench, err := workloads.ByName("_213_javac")
	if err != nil {
		b.Fatal(err)
	}
	prog := bench.Program()
	profile := bench.Profile.Scale(0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		_, err := core.Characterize(core.RunConfig{
			Platform: platform.P6(),
			VM:       vm.Config{Flavor: vm.Jikes, Collector: "GenCopy", HeapSize: 64 * units.MB, Seed: 1},
			Program:  prog,
			Profile:  profile,
			FanOn:    true,
		})
		if err != nil {
			b.Fatal(err)
		}
		logIter(b, time.Since(t0))
	}
}

// BenchmarkSemiSpaceSweep measures the batch engine on one benchmark's
// heap sweep: quick _213_javac under SemiSpace at the seven Fig. 6 heaps,
// as seven core.Characterize runs (per-point) and as one
// core.CharacterizeSweep, whose lockstep run shares one mutator among the
// seven (lockstep).
func BenchmarkSemiSpaceSweep(b *testing.B) {
	bench, err := workloads.ByName("_213_javac")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.RunConfig{
		Platform: platform.P6(),
		VM:       vm.Config{Flavor: vm.Jikes, Collector: "SemiSpace", Seed: 1},
		Program:  bench.Program(),
		Profile:  bench.Profile.Scale(0.25),
		FanOn:    true,
	}
	var heaps []units.ByteSize
	for _, mb := range experiments.NewRunner(io.Discard).JikesHeapsMB(bench.Suite) {
		heaps = append(heaps, units.ByteSize(mb)*units.MB)
	}
	b.Run("per-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			for _, h := range heaps {
				one := cfg
				one.VM.HeapSize = h
				if _, err := core.Characterize(one); err != nil {
					b.Fatal(err)
				}
			}
			logIter(b, time.Since(t0))
		}
	})
	b.Run("lockstep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			_, errs := core.CharacterizeSweep(cfg, heaps)
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			logIter(b, time.Since(t0))
		}
	})
}

// --- substrate micro-benchmarks ---

type benchRoots struct{ refs []heap.Ref }

func (r *benchRoots) Roots(fn func(*heap.Ref)) {
	for i := range r.refs {
		fn(&r.refs[i])
	}
}
func (r *benchRoots) RootCount() int { return len(r.refs) }

// BenchmarkCollectorAlloc measures the allocation fast path of each plan,
// collections included.
func BenchmarkCollectorAlloc(b *testing.B) {
	for _, plan := range []string{"SemiSpace", "MarkSweep", "GenCopy", "GenMS", "KaffeMS"} {
		b.Run(plan, func(b *testing.B) {
			h := heap.New()
			roots := &benchRoots{}
			col, err := gc.New(plan, 16*units.MB, gc.Env{Heap: h, Roots: roots, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := col.Alloc(64, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFullCollection measures a full collection over a 100k-object
// live graph.
func BenchmarkFullCollection(b *testing.B) {
	for _, plan := range []string{"SemiSpace", "MarkSweep", "GenCopy", "GenMS"} {
		b.Run(plan, func(b *testing.B) {
			h := heap.New()
			roots := &benchRoots{}
			col, err := gc.New(plan, 64*units.MB, gc.Env{Heap: h, Roots: roots, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			var prev heap.Ref
			for i := 0; i < 100_000; i++ {
				r, err := col.Alloc(64, 1)
				if err != nil {
					b.Fatal(err)
				}
				if prev != heap.Null {
					h.Get(r).RefsIn(h)[0] = prev
					col.WriteBarrier(r, prev)
				}
				prev = r
			}
			roots.refs = []heap.Ref{prev}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col.Collect("bench")
			}
		})
	}
}

// BenchmarkCacheSim measures the set-associative cache simulator.
func BenchmarkCacheSim(b *testing.B) {
	c := cpu.NewSetAssocCache(cpu.CacheConfig{Size: 32 * units.KB, LineSize: 64, Ways: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*88) % (1 << 22))
	}
}

// BenchmarkAblationSampling regenerates the sampling-period fidelity
// ablation (DAQ period vs per-component energy error).
func BenchmarkAblationSampling(b *testing.B) { benchFigure(b, "ablation-sampling") }

// BenchmarkAblationMLP regenerates the miss-level-parallelism timing-model
// ablation.
func BenchmarkAblationMLP(b *testing.B) { benchFigure(b, "ablation-mlp") }
