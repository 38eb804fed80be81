package vm

import (
	"errors"
	"testing"

	"jvmpower/internal/component"
	"jvmpower/internal/units"
)

func TestInterpretSum(t *testing.T) {
	v, exec := newTestVM(t, buildSum(100), Jikes, "SemiSpace", 4*units.MB)
	l1, l2 := testCaches()
	st, err := v.Interpret(l1, l2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.ReturnValue != 5050 {
		t.Fatalf("sum(1..100) = %d, want 5050", st.ReturnValue)
	}
	if st.Bytecodes < 1000 {
		t.Fatalf("bytecodes %d seems too few", st.Bytecodes)
	}
	if exec.instr[component.App] == 0 {
		t.Fatal("no application work emitted")
	}
	// First invocation compiled main at the baseline tier.
	if exec.slices[component.BaseCompiler] == 0 {
		t.Fatal("no baseline compilation for a Jikes run")
	}
}

func TestInterpretFib(t *testing.T) {
	v, _ := newTestVM(t, buildFib(15), Jikes, "SemiSpace", 4*units.MB)
	l1, l2 := testCaches()
	st, err := v.Interpret(l1, l2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.ReturnValue != 610 {
		t.Fatalf("fib(15) = %d, want 610", st.ReturnValue)
	}
	if st.MaxFrameDepth < 14 {
		t.Fatalf("max frame depth %d, expected deep recursion", st.MaxFrameDepth)
	}
	if st.Invocations < 1000 {
		t.Fatalf("invocations %d, expected exponential blowup", st.Invocations)
	}
}

func TestInterpretArraySum(t *testing.T) {
	v, _ := newTestVM(t, buildArraySum(200), Jikes, "GenCopy", 4*units.MB)
	l1, l2 := testCaches()
	st, err := v.Interpret(l1, l2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := int32(199 * 200 / 2)
	if st.ReturnValue != want {
		t.Fatalf("array sum = %d, want %d", st.ReturnValue, want)
	}
	if st.Allocations != 1 {
		t.Fatalf("allocations %d, want 1 (the array)", st.Allocations)
	}
}

func TestInterpretAllocLoopTriggersGC(t *testing.T) {
	for _, col := range []string{"SemiSpace", "MarkSweep", "GenCopy", "GenMS"} {
		t.Run(col, func(t *testing.T) {
			// 40k nodes × ~30 B through a 1 MB heap forces collections;
			// the live chain (rooted in a static) must survive them all.
			v, exec := newTestVM(t, buildAllocLoop(40_000, 4), Jikes, col, 1*units.MB)
			l1, l2 := testCaches()
			st, err := v.Interpret(l1, l2, 0)
			// With everything chained live, small heaps can legitimately
			// OOM for some plans; that is a correct outcome for MarkSweep
			// only if the live chain outgrew the heap — but 40k × 32 B ≈
			// 1.3 MB does exceed 1 MB, so accept OOM for all plans.
			if err != nil {
				if errors.Is(err, errUnwrap(err)) && st.Bytecodes == 0 {
					t.Fatalf("failed before executing: %v", err)
				}
				t.Logf("%s: OOM after %d bytecodes (live chain > heap): %v", col, st.Bytecodes, err)
				return
			}
			if v.GCEmitted() == 0 {
				t.Fatalf("%s: no GC despite 1.3MB live through 1MB heap", col)
			}
			_ = exec
		})
	}
}

// errUnwrap returns the innermost error (helper for the test above).
func errUnwrap(err error) error {
	for {
		u := errors.Unwrap(err)
		if u == nil {
			return err
		}
		err = u
	}
}

func TestInterpretAllocLoopSurvivesWithRoom(t *testing.T) {
	// 20k live nodes ≈ 0.6 MB fit a 4 MB heap, while the 160k-node garbage
	// phase (≈4.5 MB) forces every plan to collect; the chain must be
	// intact afterwards.
	for _, col := range []string{"SemiSpace", "MarkSweep", "GenCopy", "GenMS"} {
		t.Run(col, func(t *testing.T) {
			v, _ := newTestVM(t, buildAllocLoop(20_000, 4), Jikes, col, 4*units.MB)
			l1, l2 := testCaches()
			if _, err := v.Interpret(l1, l2, 0); err != nil {
				t.Fatalf("%s: %v", col, err)
			}
			if v.GCEmitted() == 0 {
				t.Fatalf("%s: expected collections from 20k allocations", col)
			}
			// Walk the chain from the static root and count.
			node, _ := 1, 0
			head := v.classStaticRefs[node][0]
			count := 0
			for r := head; r != 0 && count <= 20_000; {
				count++
				r = v.heap.Get(r).RefsIn(v.heap)[0]
			}
			if count != 20_000 {
				t.Fatalf("%s: chain length %d after GC, want 20000", col, count)
			}
		})
	}
}

// TestInterpretHeldRefsSurviveCollections collects while references sit
// in a frame local, on the operand stack, in an object field and in a
// static slot, then dereferences all four. SemiSpace renumbers every
// survivor, so each of those slots must have been rewritten.
func TestInterpretHeldRefsSurviveCollections(t *testing.T) {
	for _, col := range []string{"SemiSpace", "MarkSweep", "GenCopy", "GenMS"} {
		t.Run(col, func(t *testing.T) {
			v, _ := newTestVM(t, buildHeldRefs(100_000), Jikes, col, 1*units.MB)
			l1, l2 := testCaches()
			st, err := v.Interpret(l1, l2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if n := v.Collector().Stats().Collections; n == 0 {
				t.Fatal("no collection while the references were held")
			}
			if st.ReturnValue != 2134 {
				t.Fatalf("boxes read back as %d, want 2134 (b a c s)", st.ReturnValue)
			}
		})
	}
}

func TestInterpretKaffe(t *testing.T) {
	v, exec := newTestVM(t, buildSum(50), Kaffe, "", 4*units.MB)
	l1, _ := testCaches()
	st, err := v.Interpret(l1, nil, 0) // PXA255-style: no L2
	if err != nil {
		t.Fatal(err)
	}
	if st.ReturnValue != 1275 {
		t.Fatalf("sum = %d", st.ReturnValue)
	}
	if exec.slices[component.JITCompiler] == 0 {
		t.Fatal("Kaffe run compiled nothing with the JIT")
	}
	if exec.slices[component.BaseCompiler] != 0 {
		t.Fatal("Kaffe run used the Jikes baseline compiler")
	}
	// Kaffe loads the classes it touches (no boot image).
	if exec.slices[component.ClassLoader] == 0 {
		t.Fatal("Kaffe loaded no classes")
	}
}

func TestInterpretDivZero(t *testing.T) {
	v, _ := newTestVM(t, buildDivZero(), Jikes, "SemiSpace", 4*units.MB)
	l1, l2 := testCaches()
	_, err := v.Interpret(l1, l2, 0)
	var ie *InterpError
	if !errors.As(err, &ie) || ie.Kind != "ArithmeticException" {
		t.Fatalf("err = %v, want ArithmeticException", err)
	}
}

func TestInterpretStepLimit(t *testing.T) {
	// An infinite loop must hit the step limit, not hang.
	v, _ := newTestVM(t, buildSum(1<<30), Jikes, "SemiSpace", 4*units.MB)
	l1, l2 := testCaches()
	_, err := v.Interpret(l1, l2, 10_000)
	if err == nil {
		t.Fatal("expected step-limit error")
	}
}

func TestInterpretDeterministic(t *testing.T) {
	run := func() (InterpStats, [component.N]int64) {
		v, exec := newTestVM(t, buildAllocLoop(5_000, 2), Jikes, "GenCopy", 2*units.MB)
		l1, l2 := testCaches()
		st, err := v.Interpret(l1, l2, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st, exec.instr
	}
	s1, i1 := run()
	s2, i2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if i1 != i2 {
		t.Fatalf("instruction attribution diverged")
	}
}
