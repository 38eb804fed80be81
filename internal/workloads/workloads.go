// Package workloads defines the benchmark suite of the study (Figure 5):
// analogs of the seven SpecJVM98 applications, five DaCapo applications,
// and four Java Grande Forum kernels the paper measures. Each benchmark
// carries (a) a generated program — classes and methods sized like its
// namesake's, which drive class loading and compilation — and (b) a
// behavior profile for the batch execution engine, calibrated to
// the published characteristics of the original: allocation volume and
// object demographics (GC pressure), pointer-store rate (write-barrier and
// remembered-set traffic), locality and working set (cache and power
// behavior), and code structure (hot-method population for the adaptive
// optimizer).
package workloads

import (
	"fmt"
	"sort"
	"sync"

	"jvmpower/internal/classfile"
	"jvmpower/internal/vm"
)

// Suite names.
const (
	SuiteSpecJVM98 = "SpecJVM98"
	SuiteDaCapo    = "DaCapo"
	SuiteJGF       = "Java Grande Forum"
)

// Structure describes a benchmark's code shape, from which its program is
// generated.
type Structure struct {
	// AppClasses is the number of application classes; MethodsPerClass and
	// AvgMethodBytecodes size their methods; AvgClassFileBytes sizes the
	// class files the loader parses.
	AppClasses         int
	MethodsPerClass    int
	AvgMethodBytecodes int
	AvgClassFileBytes  int
}

// Benchmark is one workload: program structure + behavior profile.
type Benchmark struct {
	Name        string
	Suite       string
	Description string
	Structure   Structure
	Profile     vm.BehaviorProfile

	progOnce sync.Once
	prog     *classfile.Program // built lazily, cached
}

// Program returns the benchmark's generated program (building it on first
// use, once even under concurrent first calls). The build is
// deterministic.
func (b *Benchmark) Program() *classfile.Program {
	b.progOnce.Do(func() { b.prog = buildProgram(b) })
	return b.prog
}

// registry holds all benchmarks by name.
var registry = map[string]*Benchmark{}

func register(b *Benchmark) *Benchmark {
	if _, dup := registry[b.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate benchmark %q", b.Name))
	}
	b.Profile.Name = b.Name
	registry[b.Name] = b
	return b
}

// ByName returns a benchmark by name.
func ByName(name string) (*Benchmark, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
	}
	return b, nil
}

// All returns every benchmark, SpecJVM98 first, then DaCapo, then JGF, each
// suite in its paper order.
func All() []*Benchmark {
	var out []*Benchmark
	out = append(out, BySuite(SuiteSpecJVM98)...)
	out = append(out, BySuite(SuiteDaCapo)...)
	out = append(out, BySuite(SuiteJGF)...)
	return out
}

// BySuite returns a suite's benchmarks in their paper order.
func BySuite(suite string) []*Benchmark {
	var out []*Benchmark
	for _, b := range registry {
		if b.Suite == suite {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].order() < out[j].order() })
	return out
}

func (b *Benchmark) order() int {
	for i, n := range paperOrder {
		if n == b.Name {
			return i
		}
	}
	return len(paperOrder)
}

var paperOrder = []string{
	"_201_compress", "_202_jess", "_209_db", "_213_javac",
	"_222_mpegaudio", "_227_mtrt", "_228_jack",
	"antlr", "fop", "jython", "pmd", "ps",
	"euler", "moldyn", "raytracer", "search",
}

// EmbeddedSet returns the five SpecJVM98 benchmarks the paper runs on the
// PXA255 (Section VI-E), with profiles scaled from s100 to s10.
func EmbeddedSet() []*Benchmark {
	names := []string{"_201_compress", "_202_jess", "_209_db", "_213_javac", "_228_jack"}
	out := make([]*Benchmark, 0, len(names))
	for _, n := range names {
		b, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// S10Profile returns a benchmark's profile scaled to the s10 input size.
func S10Profile(b *Benchmark) vm.BehaviorProfile {
	return b.Profile.Scale(0.1)
}
