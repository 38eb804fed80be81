// Package jit models the runtime compilation subsystems the paper measures:
// the Jikes RVM's two-tier compiler (a fast baseline compiler run at first
// invocation, and a costly optimizing compiler run on hot methods by the
// adaptive optimization system) and Kaffe's single-tier JIT, which
// "translates opcodes to native instructions without performing extensive
// code optimizations" (Section VI-D) — cheap to run, but producing slower
// code that lengthens application execution.
package jit

import (
	"fmt"

	"jvmpower/internal/classfile"
	"jvmpower/internal/work"
)

// Tier identifies a compilation level.
type Tier uint8

// Compilation tiers.
const (
	TierNone Tier = iota // not yet compiled
	TierBaseline
	TierOpt
	TierKaffeJIT
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierNone:
		return "none"
	case TierBaseline:
		return "baseline"
	case TierOpt:
		return "opt"
	case TierKaffeJIT:
		return "kaffe-jit"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// ExecProfile describes the quality of code a tier produces.
type ExecProfile struct {
	// InstrPerBytecode is the native instruction expansion of executing
	// one bytecode in this tier's code.
	InstrPerBytecode float64
	// AccessFactor multiplies the workload's data accesses per bytecode:
	// baseline and Kaffe code spill more to the stack.
	AccessFactor float64
	// ICacheMissPerKInst for the generated code (optimized code is denser).
	ICacheMissPerKInst float64
}

// Profiles for each tier. Baseline code is straightforward stack-machine
// translation; optimized code registers and inlines; Kaffe's JIT is the
// least aggressive.
var execProfiles = map[Tier]ExecProfile{
	TierBaseline: {InstrPerBytecode: 11.0, AccessFactor: 1.20, ICacheMissPerKInst: 1.4},
	TierOpt:      {InstrPerBytecode: 4.6, AccessFactor: 0.85, ICacheMissPerKInst: 0.7},
	TierKaffeJIT: {InstrPerBytecode: 12.5, AccessFactor: 1.25, ICacheMissPerKInst: 1.6},
}

// ProfileFor returns the execution profile of a tier. TierNone panics: the
// VM never executes uncompiled methods (Jikes has no interpreter, and
// Kaffe runs in JIT mode here, matching the paper's configuration).
func ProfileFor(t Tier) ExecProfile {
	p, ok := execProfiles[t]
	if !ok {
		panic(fmt.Sprintf("jit: no execution profile for tier %s", t))
	}
	return p
}

// Compile cost model, in instructions per bytecode compiled. The optimizing
// compiler's dataflow passes are an order of magnitude costlier than the
// baseline's template expansion. Compiler working data is compact, so
// compile slices have decent locality.
const (
	baselineCompileInstrPerBC = 95
	optCompileInstrPerBC      = 1500
	kaffeCompileInstrPerBC    = 120

	compileLocality = 0.78
	// CompileICacheMissPerKInst: compiler code is warm after startup.
	CompileICacheMissPerKInst = 2.0
)

// CompileWork returns the work to compile a method at the given tier.
func CompileWork(m *classfile.Method, t Tier) work.Work {
	var per float64
	switch t {
	case TierBaseline:
		per = baselineCompileInstrPerBC
	case TierOpt:
		per = optCompileInstrPerBC
	case TierKaffeJIT:
		per = kaffeCompileInstrPerBC
	default:
		panic(fmt.Sprintf("jit: cannot compile at tier %s", t))
	}
	n := float64(m.Bytecodes)
	instr := n * per
	return work.Work{
		Instructions: int64(instr),
		// The compiler reads the bytecode and IR repeatedly and writes
		// IR + machine code; traffic scales with compile effort.
		Reads:    int64(instr * 0.30),
		Writes:   int64(instr * 0.12),
		Locality: compileLocality,
		MLP:      1.4, // IR walks are dependent traversals
	}
}
