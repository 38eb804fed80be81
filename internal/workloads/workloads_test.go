package workloads

import (
	"testing"

	"jvmpower/internal/units"
)

func TestSixteenBenchmarks(t *testing.T) {
	all := All()
	if len(all) != 16 {
		t.Fatalf("got %d benchmarks, want 16 (Figure 5)", len(all))
	}
	bySuite := map[string]int{}
	for _, b := range all {
		bySuite[b.Suite]++
	}
	if bySuite[SuiteSpecJVM98] != 7 || bySuite[SuiteDaCapo] != 5 || bySuite[SuiteJGF] != 4 {
		t.Fatalf("suite sizes %v, want 7/5/4", bySuite)
	}
}

func TestPaperOrder(t *testing.T) {
	all := All()
	if all[0].Name != "_201_compress" || all[3].Name != "_213_javac" ||
		all[7].Name != "antlr" || all[12].Name != "euler" {
		var names []string
		for _, b := range all {
			names = append(names, b.Name)
		}
		t.Fatalf("paper order broken: %v", names)
	}
}

func TestAllProgramsValidate(t *testing.T) {
	for _, b := range All() {
		prog := b.Program()
		if err := prog.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if prog.SystemClasses() < 200 {
			t.Errorf("%s: only %d system classes", b.Name, prog.SystemClasses())
		}
		if len(prog.Classes) < b.Structure.AppClasses {
			t.Errorf("%s: %d classes < %d app classes", b.Name, len(prog.Classes), b.Structure.AppClasses)
		}
	}
}

func TestAllProfilesValidate(t *testing.T) {
	for _, b := range All() {
		p := b.Profile
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if p.Name != b.Name {
			t.Errorf("%s: profile name %q", b.Name, p.Name)
		}
		// Live sets must fit every experiment heap: the tightest is
		// GenCopy at 32 MB, whose mature semi-space is 12 MB.
		if b.Suite != SuiteDaCapo && p.LiveTarget > 11*units.MB {
			t.Errorf("%s: live target %v exceeds GenCopy@32MB capacity", b.Name, p.LiveTarget)
		}
	}
}

func TestProgramsDeterministic(t *testing.T) {
	a, err := ByName("_213_javac")
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild from scratch and compare structure.
	fresh := &Benchmark{Name: a.Name, Suite: a.Suite, Structure: a.Structure, Profile: a.Profile}
	p1, p2 := a.Program(), fresh.Program()
	if len(p1.Classes) != len(p2.Classes) || len(p1.Methods) != len(p2.Methods) {
		t.Fatal("program generation not deterministic in shape")
	}
	for i := range p1.Methods {
		if len(p1.Methods[i].Code) != len(p2.Methods[i].Code) {
			t.Fatalf("method %d code size differs", i)
		}
	}
	if p1.Classes[len(p1.Classes)-1].FileBytes != p2.Classes[len(p2.Classes)-1].FileBytes {
		t.Fatal("file sizes differ between builds")
	}
}

func TestProgramCached(t *testing.T) {
	b, _ := ByName("_209_db")
	if b.Program() != b.Program() {
		t.Fatal("Program() not cached")
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestEmbeddedSet(t *testing.T) {
	set := EmbeddedSet()
	if len(set) != 5 {
		t.Fatalf("embedded set size %d, want 5", len(set))
	}
	want := map[string]bool{
		"_201_compress": true, "_202_jess": true, "_209_db": true,
		"_213_javac": true, "_228_jack": true,
	}
	for _, b := range set {
		if !want[b.Name] {
			t.Errorf("unexpected embedded benchmark %s", b.Name)
		}
	}
}

func TestS10Scaling(t *testing.T) {
	b, _ := ByName("_213_javac")
	s10 := S10Profile(b)
	if s10.TotalBytecodes != b.Profile.TotalBytecodes/10 {
		t.Fatalf("s10 bytecodes %d", s10.TotalBytecodes)
	}
	if s10.AllocBytes != b.Profile.AllocBytes/10 {
		t.Fatalf("s10 alloc %v", s10.AllocBytes)
	}
	// Live shrinks, but less than linearly.
	if s10.LiveTarget >= b.Profile.LiveTarget || s10.LiveTarget <= b.Profile.LiveTarget/10 {
		t.Fatalf("s10 live %v (from %v)", s10.LiveTarget, b.Profile.LiveTarget)
	}
	if err := s10.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratedBodiesAreStackSafe(t *testing.T) {
	// Linear abstract interpretation: no generated body may underflow its
	// operand stack, so every body is a well-formed method.
	for _, b := range All() {
		prog := b.Program()
		for _, m := range prog.Methods {
			depth := 0
			for pc, in := range m.Code {
				switch in.Op.String() {
				case "iconst":
					depth++
				case "iadd":
					if depth < 2 {
						t.Fatalf("%s %s pc %d: iadd underflow", b.Name, m.Name, pc)
					}
					depth--
				case "ineg":
					if depth < 1 {
						t.Fatalf("%s %s pc %d: ineg underflow", b.Name, m.Name, pc)
					}
				case "pop":
					if depth < 1 {
						t.Fatalf("%s %s pc %d: pop underflow", b.Name, m.Name, pc)
					}
					depth--
				}
			}
		}
	}
}
