package jit

import (
	"testing"

	"jvmpower/internal/classfile"
)

func method(n int) *classfile.Method {
	return &classfile.Method{ID: 1, Name: "m", Bytecodes: n}
}

func TestCompileCostOrdering(t *testing.T) {
	m := method(100)
	base := CompileWork(m, TierBaseline)
	opt := CompileWork(m, TierOpt)
	kaffe := CompileWork(m, TierKaffeJIT)
	if opt.Instructions <= base.Instructions {
		t.Fatal("optimizing compile not costlier than baseline")
	}
	if opt.Instructions < 10*base.Instructions {
		t.Fatalf("opt/base cost ratio too small: %d/%d", opt.Instructions, base.Instructions)
	}
	if kaffe.Instructions <= base.Instructions {
		t.Fatal("Kaffe JIT should cost slightly more than Jikes baseline")
	}
	if base.Reads <= 0 || base.Writes <= 0 {
		t.Fatal("compile work has no memory traffic")
	}
}

func TestCompileCostScalesWithSize(t *testing.T) {
	small := CompileWork(method(10), TierBaseline)
	big := CompileWork(method(1000), TierBaseline)
	if big.Instructions <= small.Instructions*50 {
		t.Fatalf("compile cost not proportional to size: %d vs %d", big.Instructions, small.Instructions)
	}
}

func TestExecProfileQualityOrdering(t *testing.T) {
	base := ProfileFor(TierBaseline)
	opt := ProfileFor(TierOpt)
	kaffe := ProfileFor(TierKaffeJIT)
	if opt.InstrPerBytecode >= base.InstrPerBytecode {
		t.Fatal("optimized code not denser than baseline")
	}
	if kaffe.InstrPerBytecode < base.InstrPerBytecode {
		t.Fatal("Kaffe's non-optimizing JIT should be no better than Jikes baseline")
	}
	if opt.AccessFactor >= base.AccessFactor {
		t.Fatal("optimized code should spill less")
	}
}

func TestProfileForPanicsOnNone(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for TierNone")
		}
	}()
	ProfileFor(TierNone)
}

func TestCompileWorkPanicsOnNone(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for TierNone compile")
		}
	}()
	CompileWork(method(5), TierNone)
}

func TestAOSPromotion(t *testing.T) {
	a := NewAOS(1000)
	m := classfile.MethodID(3)
	a.SetTier(m, TierBaseline)
	a.NoteExecution(m, 400)
	if a.PendingCompiles() != 0 {
		t.Fatal("promoted below threshold")
	}
	a.NoteExecution(m, 700) // crosses 1000
	if a.PendingCompiles() != 1 {
		t.Fatal("not promoted at threshold")
	}
	// No duplicate enqueue.
	a.NoteExecution(m, 5000)
	if a.PendingCompiles() != 1 {
		t.Fatal("duplicate enqueue")
	}
	got, ok := a.NextCompile()
	if !ok || got != m {
		t.Fatalf("NextCompile = %v %v", got, ok)
	}
	if _, ok := a.NextCompile(); ok {
		t.Fatal("queue should be empty")
	}
	a.SetTier(m, TierOpt)
	// Opt methods are not re-promoted.
	a.NoteExecution(m, 1e6)
	if a.PendingCompiles() != 0 {
		t.Fatal("re-promoted an optimized method")
	}
	if a.Executed(m) != 400+700+5000+1e6 {
		t.Fatalf("executed tally %d", a.Executed(m))
	}
}

func TestAOSCompileCounters(t *testing.T) {
	a := NewAOS(1000)
	a.SetTier(1, TierBaseline)
	a.SetTier(2, TierKaffeJIT)
	a.SetTier(3, TierOpt)
	base, opt := a.Compiles()
	if base != 2 || opt != 1 {
		t.Fatalf("compiles = %d/%d", base, opt)
	}
	// Preloaded tiers don't count as compiles.
	a.SetTierPreloaded(4, TierOpt)
	base, opt = a.Compiles()
	if opt != 1 {
		t.Fatal("preloaded tier counted as a compile")
	}
	if a.Tier(4) != TierOpt {
		t.Fatal("preloaded tier not recorded")
	}
}

func TestKaffeMethodsNeverPromote(t *testing.T) {
	a := NewAOS(100)
	a.SetTier(7, TierKaffeJIT)
	a.NoteExecution(7, 1e6)
	if a.PendingCompiles() != 0 {
		t.Fatal("Kaffe-compiled method promoted; Kaffe has no second tier")
	}
}

func TestTierStrings(t *testing.T) {
	for tier, want := range map[Tier]string{
		TierNone: "none", TierBaseline: "baseline", TierOpt: "opt", TierKaffeJIT: "kaffe-jit",
	} {
		if tier.String() != want {
			t.Errorf("tier %d = %q", tier, tier.String())
		}
	}
}
