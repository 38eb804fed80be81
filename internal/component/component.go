// Package component defines the JVM software components the paper's
// methodology distinguishes (Section IV-C): the measured services of the
// virtual machine plus the application itself. Component IDs are what the
// instrumented VM writes to the memory-mapped I/O register, what the DAQ
// samples alongside power, and what the HPM sampler attributes performance
// counters to.
package component

// ID identifies one monitored component.
type ID uint8

// The monitored components. Jikes runs decompose into App, GC, ClassLoader,
// BaseCompiler and OptCompiler; Kaffe runs into App, GC, ClassLoader and
// JITCompiler. Scheduler covers the VM's thread scheduler and controller
// thread, which the paper monitored and found below 1% of execution time.
// Idle is what the port reads between runs.
const (
	Idle ID = iota
	App
	GC
	ClassLoader
	BaseCompiler
	OptCompiler
	JITCompiler
	Scheduler

	N // number of IDs; keep last
)

var names = [N]string{
	Idle:         "idle",
	App:          "App",
	GC:           "GC",
	ClassLoader:  "CL",
	BaseCompiler: "Base",
	OptCompiler:  "Opt",
	JITCompiler:  "JIT",
	Scheduler:    "Sched",
}

// String returns the short label the paper's figures use (GC, CL, Base,
// Opt, JIT, App).
func (id ID) String() string {
	if id < N {
		return names[id]
	}
	return "?"
}

// JikesComponents lists the components monitored for the Jikes RVM, in the
// order Figure 6 stacks them.
func JikesComponents() []ID {
	return []ID{OptCompiler, BaseCompiler, ClassLoader, GC, App}
}

// KaffeComponents lists the components monitored for Kaffe, in the order
// Figures 9 and 11 stack them.
func KaffeComponents() []ID {
	return []ID{JITCompiler, ClassLoader, GC, App}
}

// VMComponents lists every component counted as "JVM energy" (everything
// monitored except the application itself).
func VMComponents() []ID {
	return []ID{GC, ClassLoader, BaseCompiler, OptCompiler, JITCompiler, Scheduler}
}
