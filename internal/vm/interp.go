package vm

import (
	"fmt"

	"jvmpower/internal/classfile"
	"jvmpower/internal/component"
	"jvmpower/internal/cpu"
	"jvmpower/internal/heap"
	"jvmpower/internal/isa"
	"jvmpower/internal/jit"
)

// Interpreter-mode execution: runs real programs in the mini ISA,
// instruction by instruction, with every heap access simulated through
// set-associative caches. This is the precision engine: it proves the VM
// executes actual programs (class loading on first reference, compilation
// on first invocation, collection on allocation failure all happen from
// genuine bytecode execution) and it validates the analytic model the
// batch engine uses. It is not meant for experiment-scale runs.

// slot is one operand-stack or local-variable slot: an int or a reference.
type slot struct {
	i     int32
	r     heap.Ref
	isRef bool
}

func intSlot(v int32) slot    { return slot{i: v} }
func refSlot(r heap.Ref) slot { return slot{r: r, isRef: true} }

// frame is one activation record.
type frame struct {
	method   *classfile.Method
	pc       int
	locals   []slot
	stack    []slot
	executed int64 // bytecodes executed in this activation
}

// InterpStats summarizes an interpreter run.
type InterpStats struct {
	Bytecodes     int64
	Invocations   int64
	Allocations   int64
	MaxFrameDepth int
	ReturnValue   int32 // entry method's IRETURN value, if any
}

// InterpError is a runtime error raised by the interpreted program (the
// moral equivalent of an uncaught Java exception).
type InterpError struct {
	Kind   string // "NullPointerException", "ArithmeticException", ...
	Method string
	PC     int
}

// Error implements error.
func (e *InterpError) Error() string {
	return fmt.Sprintf("vm: %s at %s pc=%d", e.Kind, e.Method, e.PC)
}

// interpFlushInstr is how many native instructions accumulate before the
// interpreter flushes an App slice to the meter.
const interpFlushInstr = 50_000

// interp carries interpreter state.
type interp struct {
	v *VM

	l1d *cpu.SetAssocCache
	l2  *cpu.SetAssocCache // nil on L2-less platforms

	frames []frame

	// Accumulated since last flush.
	instr  float64
	l1dm   int64
	l2m    int64
	ifm    int64
	warmed map[classfile.MethodID]bool

	// Pending strided access run, not yet applied to the caches. The
	// interpreter's array/field loops produce long arithmetic address
	// sequences; deferring them lets same-line segments go through the
	// caches' bulk path instead of one lookup per access.
	runBase   uint64
	runStride int64
	runCount  int
	runLast   uint64

	stats    InterpStats
	maxSteps int64
}

// Interpret runs the program's entry method to completion and returns run
// statistics. maxSteps bounds total bytecodes (0 = default of 50M) so
// buggy programs terminate.
func (v *VM) Interpret(l1d cpu.CacheConfig, l2 *cpu.CacheConfig, maxSteps int64) (InterpStats, error) {
	if maxSteps <= 0 {
		maxSteps = 50_000_000
	}
	it := &interp{
		v:        v,
		l1d:      cpu.NewSetAssocCache(l1d),
		warmed:   make(map[classfile.MethodID]bool),
		maxSteps: maxSteps,
	}
	if l2 != nil {
		it.l2 = cpu.NewSetAssocCache(*l2)
	}

	// Register frame roots with the collector for the duration.
	v.interpRoots = it.roots
	v.interpRootCount = it.rootCount
	defer func() { v.interpRoots, v.interpRootCount = nil, nil }()

	err := it.run()
	it.flush()
	return it.stats, err
}

// roots enumerates reference slots in all live frames, passing each
// slot's address so a moving collector can rewrite it in place.
func (it *interp) roots(fn func(*heap.Ref)) {
	for fi := range it.frames {
		f := &it.frames[fi]
		for i := range f.locals {
			if f.locals[i].isRef {
				fn(&f.locals[i].r)
			}
		}
		for i := range f.stack {
			if f.stack[i].isRef {
				fn(&f.stack[i].r)
			}
		}
	}
}

func (it *interp) rootCount() int {
	n := 0
	for fi := range it.frames {
		n += len(it.frames[fi].locals) + len(it.frames[fi].stack)
	}
	return n
}

// access records one data-memory access. Consecutive accesses forming an
// arithmetic address sequence (array walks, field scans) are buffered as a
// run and applied to the caches in bulk when the pattern breaks; the
// caches see the exact same address sequence in the exact same order, so
// fills, stamps, and counters are bit-identical to immediate simulation.
func (it *interp) access(addr uint64) {
	if it.runCount > 0 {
		if it.runCount == 1 {
			it.runStride = int64(addr - it.runBase)
			it.runCount, it.runLast = 2, addr
			return
		}
		if int64(addr-it.runLast) == it.runStride {
			it.runCount++
			it.runLast = addr
			return
		}
		it.drainRun()
	}
	it.runBase, it.runStride, it.runCount, it.runLast = addr, 0, 1, addr
}

// drainRun pushes the pending access run through the cache hierarchy,
// one L1-line segment at a time: the segment's first access does a real
// lookup (and probes L2 on miss); the rest of the segment is guaranteed
// hits on the just-touched line, applied via the caches' bulk path.
func (it *interp) drainRun() {
	base, stride, count := it.runBase, it.runStride, it.runCount
	it.runCount = 0
	addr := base
	for i := 0; i < count; {
		k := it.l1d.LineRun(addr, stride, count-i)
		if !it.l1d.Access(addr) {
			it.l1dm++
			if it.l2 == nil || !it.l2.Access(addr) {
				it.l2m++
			}
		}
		if k > 1 {
			it.l1d.TouchLast(k - 1)
		}
		addr += uint64(stride) * uint64(k)
		i += k
	}
}

// flush emits accumulated application work as a measured slice.
func (it *interp) flush() {
	if it.runCount > 0 {
		it.drainRun()
	}
	if it.instr < 1 {
		return
	}
	prof := cpu.MissProfile{L1Misses: it.l1dm, L2Misses: it.l2m}
	it.v.exec.ExecuteMeasured(component.App, int64(it.instr), prof, it.ifm)
	it.instr, it.l1dm, it.l2m, it.ifm = 0, 0, 0, 0
}

// charge accounts one executed bytecode of method m.
func (it *interp) charge(m *classfile.Method) {
	ep := jit.ProfileFor(it.v.tierOf(m.ID))
	it.instr += ep.InstrPerBytecode
}

// warmCode models the compulsory instruction-cache misses of a method's
// first execution.
func (it *interp) warmCode(m *classfile.Method) {
	if it.warmed[m.ID] {
		return
	}
	it.warmed[m.ID] = true
	code := jit.CompiledCodeBytes(m, it.v.tierOf(m.ID))
	it.ifm += int64(code / 64)
}

// invoke pushes a frame for method id, popping its arguments from the
// caller's stack (or using provided args for the entry).
func (it *interp) invoke(id classfile.MethodID, caller *frame) error {
	if it.instr >= interpFlushInstr {
		it.flush()
	}
	// First invocation triggers loading + compilation; flush first so
	// service slices land at the right point on the timeline.
	if !it.v.invoked[id] {
		it.flush()
		if err := it.v.firstInvoke(id); err != nil {
			return err
		}
	}
	m := it.v.prog.Method(id)
	it.warmCode(m)
	f := frame{
		method: m,
		locals: make([]slot, m.NLocals),
	}
	if caller != nil {
		if len(caller.stack) < m.NArgs {
			return it.verr(caller, "StackUnderflow")
		}
		base := len(caller.stack) - m.NArgs
		for i := 0; i < m.NArgs; i++ {
			f.locals[i] = caller.stack[base+i]
		}
		caller.stack = caller.stack[:base]
	}
	it.frames = append(it.frames, f)
	it.stats.Invocations++
	if len(it.frames) > it.stats.MaxFrameDepth {
		it.stats.MaxFrameDepth = len(it.frames)
	}
	return nil
}

func (it *interp) verr(f *frame, kind string) error {
	name := "?"
	if f != nil {
		name = f.method.FullName(it.v.prog)
	}
	pc := 0
	if f != nil {
		pc = f.pc
	}
	return &InterpError{Kind: kind, Method: name, PC: pc}
}

// run executes until the entry frame returns or HALT executes.
func (it *interp) run() error {
	if err := it.invoke(it.v.prog.Entry, nil); err != nil {
		return err
	}
	for len(it.frames) > 0 {
		f := &it.frames[len(it.frames)-1]
		if it.stats.Bytecodes >= it.maxSteps {
			return fmt.Errorf("vm: interpreter step limit (%d bytecodes) exceeded in %s",
				it.maxSteps, f.method.FullName(it.v.prog))
		}
		if f.pc < 0 || f.pc >= len(f.method.Code) {
			return it.verr(f, "PCOutOfRange")
		}
		in := f.method.Code[f.pc]
		it.stats.Bytecodes++
		f.executed++
		it.charge(f.method)

		done, err := it.step(f, in)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if it.instr >= interpFlushInstr {
			it.flush()
		}
	}
	return nil
}

// pop removes the top slot.
func (f *frame) pop() (slot, bool) {
	if len(f.stack) == 0 {
		return slot{}, false
	}
	s := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return s, true
}

func (f *frame) push(s slot) { f.stack = append(f.stack, s) }

// popMethod finishes the top frame, reporting its execution volume to the
// AOS, and pushes ret (if any) onto the caller.
func (it *interp) popMethod(ret *slot) {
	f := it.frames[len(it.frames)-1]
	it.v.aos.NoteExecution(f.method.ID, f.executed)
	it.frames = it.frames[:len(it.frames)-1]
	if len(it.frames) == 0 {
		if ret != nil && !ret.isRef {
			it.stats.ReturnValue = ret.i
		}
		// Run queued recompilations that accumulated during execution.
		if it.v.cfg.Flavor == Jikes {
			it.flush()
			it.v.drainCompileQueue(it.v.aos.PendingCompiles())
		}
		return
	}
	if ret != nil {
		it.frames[len(it.frames)-1].push(*ret)
	}
	// Method boundaries are the interpreter's compilation-drain points.
	if it.v.cfg.Flavor == Jikes && it.v.aos.PendingCompiles() > 0 {
		it.flush()
		it.v.drainCompileQueue(1)
	}
}

// step executes one instruction; done=true means HALT.
func (it *interp) step(f *frame, in isa.Instr) (bool, error) {
	v := it.v
	switch in.Op {
	case isa.NOP:
	case isa.ICONST:
		f.push(intSlot(in.A))
	case isa.ILOAD:
		f.push(f.locals[in.A])
	case isa.ISTORE:
		s, ok := f.pop()
		if !ok {
			return false, it.verr(f, "StackUnderflow")
		}
		f.locals[in.A] = s
	case isa.ALOAD:
		f.push(f.locals[in.A])
	case isa.ASTORE:
		s, ok := f.pop()
		if !ok {
			return false, it.verr(f, "StackUnderflow")
		}
		f.locals[in.A] = s

	case isa.IADD, isa.ISUB, isa.IMUL, isa.IDIV, isa.IREM,
		isa.ISHL, isa.ISHR, isa.IAND, isa.IOR, isa.IXOR:
		b, ok1 := f.pop()
		a, ok2 := f.pop()
		if !ok1 || !ok2 {
			return false, it.verr(f, "StackUnderflow")
		}
		var r int32
		switch in.Op {
		case isa.IADD:
			r = a.i + b.i
		case isa.ISUB:
			r = a.i - b.i
		case isa.IMUL:
			r = a.i * b.i
		case isa.IDIV:
			if b.i == 0 {
				return false, it.verr(f, "ArithmeticException")
			}
			r = a.i / b.i
		case isa.IREM:
			if b.i == 0 {
				return false, it.verr(f, "ArithmeticException")
			}
			r = a.i % b.i
		case isa.ISHL:
			r = a.i << (uint32(b.i) & 31)
		case isa.ISHR:
			r = a.i >> (uint32(b.i) & 31)
		case isa.IAND:
			r = a.i & b.i
		case isa.IOR:
			r = a.i | b.i
		case isa.IXOR:
			r = a.i ^ b.i
		}
		f.push(intSlot(r))
	case isa.INEG:
		a, ok := f.pop()
		if !ok {
			return false, it.verr(f, "StackUnderflow")
		}
		f.push(intSlot(-a.i))

	case isa.DUP:
		if len(f.stack) == 0 {
			return false, it.verr(f, "StackUnderflow")
		}
		f.push(f.stack[len(f.stack)-1])
	case isa.POP:
		if _, ok := f.pop(); !ok {
			return false, it.verr(f, "StackUnderflow")
		}
	case isa.SWAP:
		n := len(f.stack)
		if n < 2 {
			return false, it.verr(f, "StackUnderflow")
		}
		f.stack[n-1], f.stack[n-2] = f.stack[n-2], f.stack[n-1]

	case isa.GOTO:
		f.pc = int(in.A)
		return false, nil
	case isa.IFEQ, isa.IFNE, isa.IFLT, isa.IFGE, isa.IFGT, isa.IFLE, isa.IFNULL:
		a, ok := f.pop()
		if !ok {
			return false, it.verr(f, "StackUnderflow")
		}
		var taken bool
		switch in.Op {
		case isa.IFEQ:
			taken = a.i == 0
		case isa.IFNE:
			taken = a.i != 0
		case isa.IFLT:
			taken = a.i < 0
		case isa.IFGE:
			taken = a.i >= 0
		case isa.IFGT:
			taken = a.i > 0
		case isa.IFLE:
			taken = a.i <= 0
		case isa.IFNULL:
			taken = a.isRef && a.r == heap.Null || !a.isRef && a.i == 0
		}
		if taken {
			f.pc = int(in.A)
			return false, nil
		}
	case isa.IFICMPLT, isa.IFICMPGE:
		b, ok1 := f.pop()
		a, ok2 := f.pop()
		if !ok1 || !ok2 {
			return false, it.verr(f, "StackUnderflow")
		}
		taken := a.i < b.i
		if in.Op == isa.IFICMPGE {
			taken = a.i >= b.i
		}
		if taken {
			f.pc = int(in.A)
			return false, nil
		}

	case isa.NEW:
		it.flush() // loading/GC may run; keep the timeline ordered
		cid := classfile.ClassID(in.A)
		if err := v.ensureLoaded(cid); err != nil {
			return false, err
		}
		c := v.prog.Class(cid)
		nInt := len(c.Fields) - c.NumRefFields()
		ref, err := v.col.Alloc(uint32(c.InstanceSize()), c.NumRefFields())
		if err != nil {
			return false, err
		}
		if nInt > 0 {
			v.heap.SetInts(ref, make([]int32, nInt))
		}
		it.instr += float64(v.allocInstr)
		it.stats.Allocations++
		f.push(refSlot(ref))
	case isa.NEWARRAY:
		it.flush()
		n, ok := f.pop()
		if !ok {
			return false, it.verr(f, "StackUnderflow")
		}
		if n.i < 0 {
			return false, it.verr(f, "NegativeArraySizeException")
		}
		elem := int(in.A)
		if elem <= 0 {
			elem = 4
		}
		size := heap.ArraySize(int(n.i), elem)
		ref, err := v.col.Alloc(size, 0)
		if err != nil {
			return false, err
		}
		v.heap.SetInts(ref, make([]int32, n.i))
		it.instr += float64(v.allocInstr)
		it.stats.Allocations++
		f.push(refSlot(ref))

	case isa.GETFIELD, isa.GETREF:
		a, ok := f.pop()
		if !ok {
			return false, it.verr(f, "StackUnderflow")
		}
		if !a.isRef || a.r == heap.Null {
			return false, it.verr(f, "NullPointerException")
		}
		o := v.heap.Get(a.r)
		it.access(o.Addr + 8 + uint64(in.A)*4)
		if in.Op == isa.GETFIELD {
			ints := v.heap.IntsOf(a.r)
			if int(in.A) >= len(ints) {
				return false, it.verr(f, "FieldOutOfRange")
			}
			f.push(intSlot(ints[in.A]))
		} else {
			if int(in.A) >= o.NumRefs() {
				return false, it.verr(f, "FieldOutOfRange")
			}
			f.push(refSlot(o.RefsIn(v.heap)[in.A]))
		}
	case isa.PUTFIELD:
		val, ok1 := f.pop()
		a, ok2 := f.pop()
		if !ok1 || !ok2 {
			return false, it.verr(f, "StackUnderflow")
		}
		if !a.isRef || a.r == heap.Null {
			return false, it.verr(f, "NullPointerException")
		}
		o := v.heap.Get(a.r)
		ints := v.heap.IntsOf(a.r)
		if int(in.A) >= len(ints) {
			return false, it.verr(f, "FieldOutOfRange")
		}
		it.access(o.Addr + 8 + uint64(in.A)*4)
		ints[in.A] = val.i
	case isa.PUTREF:
		val, ok1 := f.pop()
		a, ok2 := f.pop()
		if !ok1 || !ok2 {
			return false, it.verr(f, "StackUnderflow")
		}
		if !a.isRef || a.r == heap.Null {
			return false, it.verr(f, "NullPointerException")
		}
		o := v.heap.Get(a.r)
		if int(in.A) >= o.NumRefs() {
			return false, it.verr(f, "FieldOutOfRange")
		}
		it.access(o.Addr + 8 + uint64(in.A)*4)
		o.RefsIn(v.heap)[in.A] = val.r
		it.instr += float64(v.col.WriteBarrier(a.r, val.r))

	case isa.IALOAD, isa.IASTORE, isa.ARRAYLEN:
		if in.Op == isa.IASTORE {
			val, ok1 := f.pop()
			idx, ok2 := f.pop()
			arr, ok3 := f.pop()
			if !ok1 || !ok2 || !ok3 {
				return false, it.verr(f, "StackUnderflow")
			}
			if !arr.isRef || arr.r == heap.Null {
				return false, it.verr(f, "NullPointerException")
			}
			o := v.heap.Get(arr.r)
			ints := v.heap.IntsOf(arr.r)
			if idx.i < 0 || int(idx.i) >= len(ints) {
				return false, it.verr(f, "ArrayIndexOutOfBounds")
			}
			it.access(o.Addr + 12 + uint64(idx.i)*4)
			ints[idx.i] = val.i
		} else if in.Op == isa.IALOAD {
			idx, ok1 := f.pop()
			arr, ok2 := f.pop()
			if !ok1 || !ok2 {
				return false, it.verr(f, "StackUnderflow")
			}
			if !arr.isRef || arr.r == heap.Null {
				return false, it.verr(f, "NullPointerException")
			}
			o := v.heap.Get(arr.r)
			ints := v.heap.IntsOf(arr.r)
			if idx.i < 0 || int(idx.i) >= len(ints) {
				return false, it.verr(f, "ArrayIndexOutOfBounds")
			}
			it.access(o.Addr + 12 + uint64(idx.i)*4)
			f.push(intSlot(ints[idx.i]))
		} else {
			arr, ok := f.pop()
			if !ok {
				return false, it.verr(f, "StackUnderflow")
			}
			if !arr.isRef || arr.r == heap.Null {
				return false, it.verr(f, "NullPointerException")
			}
			o := v.heap.Get(arr.r)
			it.access(o.Addr + 8)
			f.push(intSlot(int32(len(v.heap.IntsOf(arr.r)))))
		}

	case isa.GETSTATIC:
		it.access(staticAddr(in.A, in.B))
		f.push(intSlot(v.classStaticInts[in.A][in.B]))
	case isa.PUTSTATIC:
		s, ok := f.pop()
		if !ok {
			return false, it.verr(f, "StackUnderflow")
		}
		it.access(staticAddr(in.A, in.B))
		v.classStaticInts[in.A][in.B] = s.i
	case isa.GETSTATICREF:
		it.access(staticAddr(in.A, in.B))
		f.push(refSlot(v.classStaticRefs[in.A][in.B]))
	case isa.PUTSTATICREF:
		s, ok := f.pop()
		if !ok {
			return false, it.verr(f, "StackUnderflow")
		}
		it.access(staticAddr(in.A, in.B))
		v.classStaticRefs[in.A][in.B] = s.r
		// Static stores are barriered too (statics are roots, but the
		// inline filter still runs in real generational plans).
		it.instr += float64(v.col.WriteBarrier(heap.Null, s.r))

	case isa.INVOKE:
		f.pc++
		if err := it.invoke(classfile.MethodID(in.A), f); err != nil {
			return false, err
		}
		return false, nil
	case isa.RETURN:
		it.popMethod(nil)
		return false, nil
	case isa.IRETURN, isa.ARETURN:
		s, ok := f.pop()
		if !ok {
			return false, it.verr(f, "StackUnderflow")
		}
		it.popMethod(&s)
		return false, nil
	case isa.HALT:
		it.popMethod(nil)
		it.frames = it.frames[:0]
		return true, nil
	default:
		return false, it.verr(f, "InvalidOpcode")
	}
	f.pc++
	return false, nil
}

// staticAddr maps a static slot to a simulated address in the statics
// region.
func staticAddr(class, slot int32) uint64 {
	return 0x0800_0000 + uint64(class)*4096 + uint64(slot)*4
}
