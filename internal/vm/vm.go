// Package vm assembles the virtual machine under test: heap + garbage
// collector, lazy class loader, compilation subsystem, and the
// instrumentation hooks that write the component-ID port. It supports the
// paper's two machines as configurations: the Jikes RVM (adaptive two-tier
// compilation, merged system classes, choice of four MMTk-style collectors)
// and Kaffe (single-tier JIT, lazy system-class loading, incremental
// conservative mark-sweep GC).
//
// The VM emits its execution as slices attributed to components, through
// the Executor interface implemented by core.Meter. Two execution engines
// drive it: the bytecode interpreter (interp.go) executes real programs
// instruction by instruction, and the batch engine (batch.go) executes
// benchmark behavior profiles at experiment scale. Both exercise the same
// allocator, collector, loader, and compiler paths.
package vm

import (
	"errors"
	"fmt"

	"jvmpower/internal/classfile"
	"jvmpower/internal/classloader"
	"jvmpower/internal/component"
	"jvmpower/internal/cpu"
	"jvmpower/internal/gc"
	"jvmpower/internal/heap"
	"jvmpower/internal/jit"
	"jvmpower/internal/units"
	"jvmpower/internal/work"
)

// Flavor selects which virtual machine is modeled.
type Flavor uint8

// The two JVMs of the study.
const (
	Jikes Flavor = iota
	Kaffe
)

// String returns the VM name, or Flavor(N) for a value that names no VM.
func (f Flavor) String() string {
	switch f {
	case Jikes:
		return "JikesRVM"
	case Kaffe:
		return "Kaffe"
	}
	return fmt.Sprintf("Flavor(%d)", uint8(f))
}

// Executor receives the VM's execution; core.Meter implements it. Execute
// prices a slice through the analytic cache model; ExecuteMeasured is used
// by the interpreter, whose cache behavior is simulated per access.
type Executor interface {
	Execute(id component.ID, s cpu.Slice)
	ExecuteMeasured(id component.ID, instructions int64, prof cpu.MissProfile, ifetchMisses int64)
}

// Config describes a VM instance.
type Config struct {
	Flavor Flavor
	// Collector names a gc plan. Jikes accepts SemiSpace, MarkSweep,
	// GenCopy, GenMS; Kaffe always uses KaffeMS (leave empty).
	Collector string
	HeapSize  units.ByteSize
	// HotThresholdBytecodes tunes the AOS (0 = default).
	HotThresholdBytecodes int64
	// Seed drives all deterministic pseudo-randomness in the run.
	Seed uint64
}

// DefaultHotThreshold is the AOS hotness threshold in executed bytecodes.
const DefaultHotThreshold = 220_000

// ErrCancelled is returned by RunProfile when the run's cancel channel
// closes between segments. A cancelled run produced no usable result; the
// dispatcher that requested the cancellation discards it rather than
// recording a fault.
var ErrCancelled = errors.New("vm: run cancelled")

// VM is one virtual machine instance bound to a program and an executor.
type VM struct {
	cfg    Config
	exec   Executor
	prog   *classfile.Program
	heap   *heap.Heap
	col    gc.Collector
	loader *classloader.Loader
	aos    *jit.AOS

	// Roots.
	statics   []heap.Ref // chain anchors + per-class static ref slots
	stackRing []heap.Ref
	ringPos   int // the ring's newest slot, which holds the last allocation
	// metaBytes is immortal class-metadata footprint (outside the heap).
	metaBytes units.ByteSize

	// Long-lived object chains and mutation tables (see graph.go).
	chains     []chain
	chainTotal units.ByteSize
	tables     []heap.Ref

	// Class static storage (interpreter mode). Static reference slots are
	// GC roots.
	classStaticInts [][]int32
	classStaticRefs [][]heap.Ref

	// Graph-operation costs accumulated since the last App slice.
	pendingMutInstr int64
	// allocInstr is the plan's mutator allocation-sequence cost: free-list
	// plans pay more per object than bump-pointer ones.
	allocInstr int64

	// invoked marks methods that have executed at least once.
	invoked []bool

	// Interpreter frame roots, registered while interp runs.
	interpRoots     func(func(*heap.Ref))
	interpRootCount func() int

	rngState uint64

	// gcEmitted counts collection reports converted to slices.
	gcEmitted int64

	// cancel, when non-nil, is polled between execution segments; closing
	// it makes RunProfile return ErrCancelled at the next segment boundary.
	cancel <-chan struct{}
}

// New builds a VM for prog, wiring its collector's collection reports and
// all service work to exec.
func New(cfg Config, prog *classfile.Program, exec Executor) (*VM, error) {
	if prog == nil || exec == nil {
		return nil, fmt.Errorf("vm: program and executor are required")
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	colName := cfg.Collector
	switch cfg.Flavor {
	case Jikes:
		if colName == "" {
			colName = "GenCopy"
		}
		if colName == "KaffeMS" {
			return nil, fmt.Errorf("vm: Jikes does not run the Kaffe collector")
		}
	case Kaffe:
		if colName == "" {
			colName = "KaffeMS"
		}
		if colName != "KaffeMS" {
			return nil, fmt.Errorf("vm: Kaffe supports only its own collector, not %q", colName)
		}
	default:
		return nil, fmt.Errorf("vm: unknown flavor %d", cfg.Flavor)
	}
	hot := cfg.HotThresholdBytecodes
	if hot <= 0 {
		hot = DefaultHotThreshold
	}

	v := &VM{
		cfg:      cfg,
		exec:     exec,
		prog:     prog,
		heap:     heap.New(),
		aos:      jit.NewAOS(hot),
		invoked:  make([]bool, len(prog.Methods)),
		rngState: cfg.Seed ^ 0xD1B54A32D192ED03,
	}
	v.loader = classloader.New(prog, cfg.Flavor == Jikes)
	v.initChains()
	v.classStaticInts = make([][]int32, len(prog.Classes))
	v.classStaticRefs = make([][]heap.Ref, len(prog.Classes))
	for i, c := range prog.Classes {
		if c.StaticInts > 0 {
			v.classStaticInts[i] = make([]int32, c.StaticInts)
		}
		if c.StaticRefs > 0 {
			v.classStaticRefs[i] = make([]heap.Ref, c.StaticRefs)
		}
	}

	col, err := gc.New(colName, cfg.HeapSize, gc.Env{
		Heap:         v.heap,
		Roots:        (*vmRoots)(v),
		OnCollection: v.onCollection,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	v.col = col
	v.allocInstr = gc.AllocCost(colName == "MarkSweep" || colName == "KaffeMS")
	return v, nil
}

// SetCancel installs a cancellation channel. The batch engine polls it at
// every segment boundary, so a run whose caller has given up (a timed-out
// attempt, a shutting-down campaign) stops within one segment (~100k
// bytecodes) instead of simulating to completion as abandoned work. A nil
// channel (the default) keeps the poll on its zero-cost path.
func (v *VM) SetCancel(ch <-chan struct{}) { v.cancel = ch }

// cancelRequested reports whether the cancel channel has closed.
func (v *VM) cancelRequested() bool {
	if v.cancel == nil {
		return false
	}
	select {
	case <-v.cancel:
		return true
	default:
		return false
	}
}

// ReleaseResources returns the heap's object-table chunks to the shared
// chunk pool. The VM must not execute afterwards. core.Characterize calls
// it once the decomposition has been built; long-lived VMs (interpreter
// sessions, tests) simply never release and lose nothing but pool reuse.
func (v *VM) ReleaseResources() { v.heap.Release() }

// Collector exposes the collector (stats, locality) to callers.
func (v *VM) Collector() gc.Collector { return v.col }

// Heap exposes the heap (tests, diagnostics).
func (v *VM) Heap() *heap.Heap { return v.heap }

// Loader exposes the class loader.
func (v *VM) Loader() *classloader.Loader { return v.loader }

// AOS exposes the adaptive optimization system.
func (v *VM) AOS() *jit.AOS { return v.aos }

// Program returns the loaded program.
func (v *VM) Program() *classfile.Program { return v.prog }

// rng returns the next deterministic pseudo-random uint64 (splitmix64).
func (v *VM) rng() uint64 {
	v.rngState += 0x9E3779B97F4A7C15
	x := v.rngState
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// rngFloat returns a deterministic float64 in [0,1).
func (v *VM) rngFloat() float64 { return float64(v.rng()>>11) / float64(1<<53) }

// workSlice converts service work into an execution slice.
func workSlice(w work.Work, workingSet units.ByteSize, icachePerK float64) cpu.Slice {
	return cpu.Slice{
		Instructions:       w.Instructions,
		Reads:              w.Reads,
		Writes:             w.Writes,
		Locality:           w.Locality,
		MLP:                w.MLP,
		WorkingSet:         workingSet,
		ICacheMissPerKInst: icachePerK,
	}
}

// onCollection prices a collection report and emits it under the GC
// component. The port switches to GC for the duration of the slice and
// back to whatever the dispatcher writes next — the same visibility the
// paper's scheduler-level instrumentation provides.
func (v *VM) onCollection(r gc.CollectionReport) {
	// The collector's working set spans the live objects it traces plus
	// the evacuation traffic (source and destination of every copy), which
	// is what defeats the L2 during nursery evacuations.
	ws := v.heap.LiveBytes() + 2*r.BytesCopied
	if ws < 64*units.KB {
		ws = 64 * units.KB
	}
	if len(r.Phases) > 0 {
		for _, pw := range r.Phases {
			v.exec.Execute(component.GC, workSlice(pw.Work, ws, 1.0))
		}
	} else {
		v.exec.Execute(component.GC, workSlice(r.Work, ws, 1.0))
	}
	v.gcEmitted++
}

// GCEmitted reports how many GC slices have been emitted.
func (v *VM) GCEmitted() int64 { return v.gcEmitted }

// ensureLoaded loads a class (and supers) on first reference, emitting CL
// slices and allocating the runtime metadata in the heap. For Jikes,
// system classes are boot-image resident and return immediately.
func (v *VM) ensureLoaded(id classfile.ClassID) error {
	if v.loader.Loaded(id) {
		return nil
	}
	reports, err := v.loader.EnsureLoaded(id)
	if err != nil {
		return err
	}
	for _, r := range reports {
		v.exec.Execute(component.ClassLoader,
			workSlice(r.Work, 24*(r.FileBytes+r.MetadataBytes), classloader.LoadICacheMissPerKInst))
		// Runtime metadata is immortal and lives outside the collected
		// heap (Jikes keeps it in an immortal space; Kaffe's lives beyond
		// any cycle's reach). Account it; the collectors never see it.
		v.metaBytes += r.MetadataBytes
	}
	return nil
}

// compile compiles a method at the given tier, emitting the slice under
// the right component.
func (v *VM) compile(m classfile.MethodID, tier jit.Tier) {
	method := v.prog.Method(m)
	w := jit.CompileWork(method, tier)
	var comp component.ID
	switch tier {
	case jit.TierBaseline:
		comp = component.BaseCompiler
	case jit.TierOpt:
		comp = component.OptCompiler
	case jit.TierKaffeJIT:
		comp = component.JITCompiler
	default:
		panic(fmt.Sprintf("vm: compile at tier %s", tier))
	}
	// Compiler working state (IR, tables) spans well beyond the method.
	ws := units.ByteSize(method.Size() * 160)
	if ws < 128*units.KB {
		ws = 128 * units.KB
	}
	v.exec.Execute(comp, workSlice(w, ws, jit.CompileICacheMissPerKInst))
	v.aos.SetTier(m, tier)
}

// firstInvoke handles a method's first invocation: the defining class is
// loaded and the method is compiled at the VM's first tier.
func (v *VM) firstInvoke(m classfile.MethodID) error {
	if v.invoked[m] {
		return nil
	}
	v.invoked[m] = true
	method := v.prog.Method(m)
	if v.cfg.Flavor == Jikes && v.prog.Class(method.Class).System {
		// Boot image: Jikes merges system classes into the VM image,
		// preloaded and precompiled at the optimizing level. First
		// invocation costs nothing at run time — the structural difference
		// from Kaffe that Section VI-E traces the embedded class-loading
		// energy gap to.
		v.aos.SetTierPreloaded(m, jit.TierOpt)
		return nil
	}
	if err := v.ensureLoaded(method.Class); err != nil {
		return err
	}
	if v.cfg.Flavor == Jikes {
		v.compile(m, jit.TierBaseline)
	} else {
		v.compile(m, jit.TierKaffeJIT)
	}
	return nil
}

// drainCompileQueue runs queued optimizing recompilations (the Jikes
// optimizing-compiler thread's work, interleaved at scheduling quanta).
func (v *VM) drainCompileQueue(max int) {
	for i := 0; i < max; i++ {
		m, ok := v.aos.NextCompile()
		if !ok {
			return
		}
		v.compile(m, jit.TierOpt)
	}
}

// controllerTick emits the AOS controller thread's periodic bookkeeping
// (the component the paper monitored and found under 1% of execution).
func (v *VM) controllerTick() {
	v.exec.Execute(component.Scheduler, cpu.Slice{
		Instructions: 22_000,
		Reads:        5_500,
		Writes:       1_600,
		Locality:     0.86,
		MLP:          1.5,
		WorkingSet:   256 * units.KB,
	})
}
