package workloads

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"jvmpower/internal/classfile"
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
		system := 0
		for _, c := range prog.Classes {
			if c.System {
				system++
			}
		}
		if system < 200 {
			t.Errorf("%s: only %d system classes", b.Name, system)
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

// programShapes holds, per benchmark, the SHA-256 of shapeOf(Program()).
// Every figure reads a program only through these facts, so a change that
// moves one of these digests moves the figures too.
var programShapes = map[string]string{
	"_201_compress":  "0c2675151fb58cbfaee11218f7b2bf3d66d8cfc794c5e9bab30149082530deae",
	"_202_jess":      "b56ce7615fda94ccb0f82501d44a08b9d9772b35d5823106d3c1e8d72b616a88",
	"_209_db":        "89a5af169460e12013f2d3f861965156a543a2b23b0df9acc010db0766dfbae7",
	"_213_javac":     "b62c7af044ea1e02ba024f8d9fef0f831cda7d8dc4f20489dc9e7d6cf5dd5602",
	"_222_mpegaudio": "a9de2453cf030e40070e807c2042c4999c29fc9fc1bb83ac80ad55dc5fdabf8e",
	"_227_mtrt":      "3f11cae1378bb211dd78c480f79f3f8d7a3ba695a03ded24b7dd9596df94f468",
	"_228_jack":      "04c2583ab78ca6c3b8ae48ef052d527ce1bb0e4c68675ed7d4516cf525514b18",
	"antlr":          "c712a9cf544983959ac25deaca65ce18a7ca2ea05aed5ac004b5b04e98935416",
	"fop":            "06d575affcb2a17aa134f5ada7c74afa410b80f3e9aba95d835fc88c087f88a0",
	"jython":         "c93cf7eac82834a14e565e4446006866cb576ba55b76627e6e0fc4a35da05b57",
	"pmd":            "7d2e355e3ad16016db05e7e2cde171d228705e9e3024338e647ee02a5ebc46c7",
	"ps":             "4686e9b309555759b122b89785c9eadff013adaa248b27afa1827fb6c7c6f3ae",
	"euler":          "f4de2f4876800bc2aeeb854dd7a6acfafdfe12cbc8448fc58301998e15c79049",
	"moldyn":         "9421a6a44f44282a087e4d1062607fd3ec265a9a22175dbbce4194e0732527c6",
	"raytracer":      "0b1c8a6c58cc2c1d42902d2f5db4aa490f3a91140f352edd011a0f4ca862d3f8",
	"search":         "a2db8fec075aa386d763db2dca4da0ba55f8d1f9eaf41559ecfa89ce1fac0a19",
}

// shapeOf hashes every fact of a program that the loader, the compilers
// and the VM read: the entry, each class's ID, name, super, system flag,
// file size and static reference slots, and each method's ID, class, name
// and size.
func shapeOf(p *classfile.Program) string {
	h := sha256.New()
	fmt.Fprintf(h, "entry %d\n", p.Entry)
	for _, c := range p.Classes {
		fmt.Fprintf(h, "class %d %s %d %t %d %d\n", c.ID, c.Name, c.Super, c.System, c.FileBytes, c.StaticRefs)
	}
	for _, m := range p.Methods {
		fmt.Fprintf(h, "method %d %d %s %d\n", m.ID, m.Class, m.Name, m.Bytecodes)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestProgramShapes pins every generated program, and builds each a second
// time from scratch to show the build is deterministic.
func TestProgramShapes(t *testing.T) {
	all := All()
	if len(all) != len(programShapes) {
		t.Fatalf("%d benchmarks, %d recorded shapes", len(all), len(programShapes))
	}
	for _, b := range all {
		got := shapeOf(b.Program())
		if want := programShapes[b.Name]; got != want {
			t.Errorf("%s: program shape %s, want %s", b.Name, got, want)
		}
		fresh := &Benchmark{Name: b.Name, Structure: b.Structure}
		if again := shapeOf(fresh.Program()); again != got {
			t.Errorf("%s: a second build has shape %s, not %s", b.Name, again, got)
		}
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
