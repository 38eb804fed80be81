package vm

import (
	"testing"

	"jvmpower/internal/classfile"
	"jvmpower/internal/component"
	"jvmpower/internal/cpu"
	"jvmpower/internal/isa"
	"jvmpower/internal/units"
)

// Test programs for the interpreter: real bytecode exercising arithmetic,
// control flow, calls, objects, arrays, and statics.

// countingExec records slices per component (a minimal Executor).
type countingExec struct {
	instr  [component.N]int64
	slices [component.N]int
}

func (e *countingExec) Execute(id component.ID, s cpu.Slice) {
	e.instr[id] += s.Instructions
	e.slices[id]++
}

func (e *countingExec) ExecuteMeasured(id component.ID, instr int64, prof cpu.MissProfile, ifm int64) {
	e.instr[id] += instr
	e.slices[id]++
}

// buildSum computes sum(1..n) iteratively and returns it from the entry.
func buildSum(n int32) *classfile.Program {
	b := classfile.NewBuilder("sum")
	obj := b.AddClass(classfile.ClassSpec{Name: "Object"})
	// locals: 0 = i, 1 = acc
	code := []isa.Instr{
		0:  classfile.I(isa.ICONST, 0),
		1:  classfile.I(isa.ISTORE, 1),
		2:  classfile.I(isa.ICONST, n),
		3:  classfile.I(isa.ISTORE, 0),
		4:  classfile.I(isa.ILOAD, 0), // loop: if i <= 0 goto 15
		5:  classfile.I(isa.IFLE, 15),
		6:  classfile.I(isa.ILOAD, 1), // acc += i
		7:  classfile.I(isa.ILOAD, 0),
		8:  classfile.I(isa.IADD),
		9:  classfile.I(isa.ISTORE, 1),
		10: classfile.I(isa.ILOAD, 0), // i--
		11: classfile.I(isa.ICONST, 1),
		12: classfile.I(isa.ISUB),
		13: classfile.I(isa.ISTORE, 0),
		14: classfile.I(isa.GOTO, 4),
		15: classfile.I(isa.ILOAD, 1),
		16: classfile.I(isa.IRETURN),
	}
	m := b.AddMethod(classfile.MethodSpec{Class: obj, Name: "main", ExtraSlots: 2, Code: code})
	b.SetEntry(m)
	return b.MustBuild()
}

// buildAllocLoop allocates n linked Node objects (kept live through a
// static chain head) followed by garbage nodes of 8x that count — real
// allocation pressure with a live chain the collector must preserve.
func buildAllocLoop(n int32, pad int) *classfile.Program {
	b := classfile.NewBuilder("allocloop")
	obj := b.AddClass(classfile.ClassSpec{Name: "Object"})
	fs := []classfile.Field{{Name: "next", Kind: classfile.RefField}}
	for i := 0; i < pad; i++ {
		fs = append(fs, classfile.Field{Name: "pad", Kind: classfile.IntField})
	}
	node := b.AddClass(classfile.ClassSpec{Name: "Node", Super: "Object", Fields: fs, StaticRefs: 1})
	// locals: 0 = i
	code := []isa.Instr{
		0:  classfile.I(isa.ICONST, n),
		1:  classfile.I(isa.ISTORE, 0),
		2:  classfile.I(isa.ILOAD, 0), // loop: if i <= 0 goto 14
		3:  classfile.I(isa.IFLE, 14),
		4:  classfile.I(isa.NEW, int32(node)),
		5:  classfile.I(isa.DUP),
		6:  classfile.I(isa.GETSTATICREF, int32(node), 0),
		7:  classfile.I(isa.PUTREF, 0),                    // new.next = old head
		8:  classfile.I(isa.PUTSTATICREF, int32(node), 0), // head = new
		9:  classfile.I(isa.ILOAD, 0),                     // i--
		10: classfile.I(isa.ICONST, 1),
		11: classfile.I(isa.ISUB),
		12: classfile.I(isa.ISTORE, 0),
		13: classfile.I(isa.GOTO, 2),
		// garbage phase: allocate 8n unlinked nodes
		14: classfile.I(isa.ICONST, 8*n),
		15: classfile.I(isa.ISTORE, 0),
		16: classfile.I(isa.ILOAD, 0),
		17: classfile.I(isa.IFLE, 25),
		18: classfile.I(isa.NEW, int32(node)),
		19: classfile.I(isa.POP),
		20: classfile.I(isa.ILOAD, 0),
		21: classfile.I(isa.ICONST, 1),
		22: classfile.I(isa.ISUB),
		23: classfile.I(isa.ISTORE, 0),
		24: classfile.I(isa.GOTO, 16),
		25: classfile.I(isa.RETURN),
	}
	m := b.AddMethod(classfile.MethodSpec{Class: obj, Name: "main", ExtraSlots: 1, Code: code})
	b.SetEntry(m)
	return b.MustBuild()
}

// buildHeldRefs keeps references in every kind of interpreter root while
// it allocates garbage boxes of count: box a in local 0, box b on the
// operand stack, box c only in a.next, box s in a static slot. Afterwards
// it reads the four boxes' values (1, 2, 3, 4 for a, b, c, s) back through
// those references and returns them as the digits b a c s, so a reference
// left pointing at the wrong box changes the result from 2134.
func buildHeldRefs(garbage int32) *classfile.Program {
	b := classfile.NewBuilder("heldrefs")
	obj := b.AddClass(classfile.ClassSpec{Name: "Object"})
	box := int32(b.AddClass(classfile.ClassSpec{Name: "Box", Super: "Object", StaticRefs: 1,
		Fields: []classfile.Field{{Name: "next", Kind: classfile.RefField}, {Name: "val", Kind: classfile.IntField}}}))
	I := classfile.I
	newBox := func(val int32) []isa.Instr { // leaves the box on the stack
		return []isa.Instr{I(isa.NEW, box), I(isa.DUP), I(isa.ICONST, val), I(isa.PUTFIELD, 0)}
	}
	var code []isa.Instr
	code = append(code, newBox(1)...)
	code = append(code, I(isa.ASTORE, 0)) // local 0 = a
	code = append(code, newBox(2)...)     // b stays on the stack
	code = append(code, newBox(3)...)
	code = append(code, I(isa.ALOAD, 0), I(isa.SWAP), I(isa.PUTREF, 0)) // a.next = c
	code = append(code, newBox(4)...)
	code = append(code, I(isa.PUTSTATICREF, box, 0)) // static = s
	loop := int32(len(code) + 2)
	code = append(code,
		I(isa.ICONST, garbage), I(isa.ISTORE, 1),
		I(isa.ILOAD, 1), I(isa.IFLE, loop+9), // loop: while i > 0
		I(isa.NEW, box), I(isa.POP),
		I(isa.ILOAD, 1), I(isa.ICONST, 1), I(isa.ISUB), I(isa.ISTORE, 1),
		I(isa.GOTO, loop),
	)
	code = append(code,
		I(isa.GETFIELD, 0), I(isa.ICONST, 10), I(isa.IMUL), // b
		I(isa.ALOAD, 0), I(isa.GETFIELD, 0), I(isa.IADD), I(isa.ICONST, 10), I(isa.IMUL), // a
		I(isa.ALOAD, 0), I(isa.GETREF, 0), I(isa.GETFIELD, 0), I(isa.IADD), I(isa.ICONST, 10), I(isa.IMUL), // c
		I(isa.GETSTATICREF, box, 0), I(isa.GETFIELD, 0), I(isa.IADD), // s
		I(isa.IRETURN),
	)
	m := b.AddMethod(classfile.MethodSpec{Class: obj, Name: "main", ExtraSlots: 2, Code: code})
	b.SetEntry(m)
	return b.MustBuild()
}

// buildFib computes fib(n) by naive recursion (deep frames, many invokes).
// fib is method 0 so its recursive INVOKE operand is stable.
func buildFib(n int32) *classfile.Program {
	b := classfile.NewBuilder("fib")
	obj := b.AddClass(classfile.ClassSpec{Name: "Object"})
	fib := b.AddMethod(classfile.MethodSpec{
		Class: obj, Name: "fib", RefArgs: []bool{false},
		Code: []isa.Instr{
			0:  classfile.I(isa.ILOAD, 0),
			1:  classfile.I(isa.ICONST, 2),
			2:  classfile.I(isa.IFICMPGE, 5),
			3:  classfile.I(isa.ILOAD, 0),
			4:  classfile.I(isa.IRETURN),
			5:  classfile.I(isa.ILOAD, 0),
			6:  classfile.I(isa.ICONST, 1),
			7:  classfile.I(isa.ISUB),
			8:  classfile.I(isa.INVOKE, 0),
			9:  classfile.I(isa.ILOAD, 0),
			10: classfile.I(isa.ICONST, 2),
			11: classfile.I(isa.ISUB),
			12: classfile.I(isa.INVOKE, 0),
			13: classfile.I(isa.IADD),
			14: classfile.I(isa.IRETURN),
		},
	})
	main := b.AddMethod(classfile.MethodSpec{
		Class: obj, Name: "main",
		Code: []isa.Instr{
			classfile.I(isa.ICONST, n),
			classfile.I(isa.INVOKE, int32(fib)),
			classfile.I(isa.IRETURN),
		},
	})
	b.SetEntry(main)
	return b.MustBuild()
}

// buildArraySum fills an int array with 0..n-1 and sums it.
func buildArraySum(n int32) *classfile.Program {
	b := classfile.NewBuilder("arraysum")
	obj := b.AddClass(classfile.ClassSpec{Name: "Object"})
	// locals: 0 = arr, 1 = i, 2 = acc
	code := []isa.Instr{
		0:  classfile.I(isa.ICONST, n),
		1:  classfile.I(isa.NEWARRAY, 4),
		2:  classfile.I(isa.ASTORE, 0),
		3:  classfile.I(isa.ICONST, 0),
		4:  classfile.I(isa.ISTORE, 1),
		5:  classfile.I(isa.ILOAD, 1), // fill: while i < n
		6:  classfile.I(isa.ICONST, n),
		7:  classfile.I(isa.IFICMPGE, 17),
		8:  classfile.I(isa.ALOAD, 0),
		9:  classfile.I(isa.ILOAD, 1),
		10: classfile.I(isa.ILOAD, 1), // arr[i] = i
		11: classfile.I(isa.IASTORE),
		12: classfile.I(isa.ILOAD, 1),
		13: classfile.I(isa.ICONST, 1),
		14: classfile.I(isa.IADD),
		15: classfile.I(isa.ISTORE, 1),
		16: classfile.I(isa.GOTO, 5),
		17: classfile.I(isa.ICONST, 0), // acc = 0; i = 0
		18: classfile.I(isa.ISTORE, 2),
		19: classfile.I(isa.ICONST, 0),
		20: classfile.I(isa.ISTORE, 1),
		21: classfile.I(isa.ILOAD, 1), // sum: while i < n
		22: classfile.I(isa.ICONST, n),
		23: classfile.I(isa.IFICMPGE, 35),
		24: classfile.I(isa.ILOAD, 2),
		25: classfile.I(isa.ALOAD, 0),
		26: classfile.I(isa.ILOAD, 1),
		27: classfile.I(isa.IALOAD),
		28: classfile.I(isa.IADD),
		29: classfile.I(isa.ISTORE, 2),
		30: classfile.I(isa.ILOAD, 1),
		31: classfile.I(isa.ICONST, 1),
		32: classfile.I(isa.IADD),
		33: classfile.I(isa.ISTORE, 1),
		34: classfile.I(isa.GOTO, 21),
		35: classfile.I(isa.ILOAD, 2),
		36: classfile.I(isa.IRETURN),
	}
	m := b.AddMethod(classfile.MethodSpec{Class: obj, Name: "main", ExtraSlots: 3, Code: code})
	b.SetEntry(m)
	return b.MustBuild()
}

// buildDivZero divides by zero (runtime error path).
func buildDivZero() *classfile.Program {
	b := classfile.NewBuilder("divzero")
	obj := b.AddClass(classfile.ClassSpec{Name: "Object"})
	m := b.AddMethod(classfile.MethodSpec{
		Class: obj, Name: "main",
		Code: classfile.Asm(
			classfile.I(isa.ICONST, 1),
			classfile.I(isa.ICONST, 0),
			classfile.I(isa.IDIV),
			classfile.I(isa.IRETURN),
		),
	})
	b.SetEntry(m)
	return b.MustBuild()
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

// testCaches returns small cache configs for interpreter runs.
func testCaches() (cpu.CacheConfig, *cpu.CacheConfig) {
	l2 := cpu.CacheConfig{Size: 256 * units.KB, LineSize: 64, Ways: 8}
	return cpu.CacheConfig{Size: 16 * units.KB, LineSize: 64, Ways: 4}, &l2
}
