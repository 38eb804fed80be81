package vm

import (
	"testing"

	"jvmpower/internal/classfile"
	"jvmpower/internal/component"
	"jvmpower/internal/cpu"
	"jvmpower/internal/units"
)

// countingExec records slices per component (a minimal Executor).
type countingExec struct {
	instr  [component.N]int64
	slices [component.N]int
}

func (e *countingExec) Execute(id component.ID, s cpu.Slice) {
	e.instr[id] += s.Instructions
	e.slices[id]++
}

func newTestVM(t *testing.T, prog *classfile.Program, flavor Flavor, col string, heap units.ByteSize) (*VM, *countingExec) {
	t.Helper()
	exec := &countingExec{}
	v, err := New(Config{Flavor: flavor, Collector: col, HeapSize: heap, Seed: 1}, prog, exec)
	if err != nil {
		t.Fatal(err)
	}
	return v, exec
}
