package classloader

import (
	"testing"

	"jvmpower/internal/classfile"
)

func chainProgram(t *testing.T) *classfile.Program {
	t.Helper()
	b := classfile.NewBuilder("t")
	b.AddClass(classfile.ClassSpec{Name: "Object", System: true, FileBytes: 1000})
	b.AddClass(classfile.ClassSpec{Name: "Sys", Super: "Object", System: true, FileBytes: 2000})
	b.AddClass(classfile.ClassSpec{Name: "A", Super: "Object", FileBytes: 3000})
	bID := b.AddClass(classfile.ClassSpec{Name: "B", Super: "A", FileBytes: 4000})
	m := b.AddMethod(classfile.MethodSpec{Class: bID, Name: "main", Bytecodes: 1})
	b.SetEntry(m)
	return b.MustBuild()
}

func TestLazyLoadingWithSuperChain(t *testing.T) {
	p := chainProgram(t)
	l := New(p, false)
	bID, _ := p.Classes[3].ID, 0
	reports, err := l.EnsureLoaded(bID)
	if err != nil {
		t.Fatal(err)
	}
	// B requires A requires Object: three loads, supers first.
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(reports))
	}
	wantOrder := []string{"Object", "A", "B"}
	for i, r := range reports {
		if p.Classes[r.Class].Name != wantOrder[i] {
			t.Fatalf("load %d = %s, want %s", i, p.Classes[r.Class].Name, wantOrder[i])
		}
		if r.Work.Instructions <= 0 || r.FileBytes <= 0 || r.MetadataBytes <= 0 {
			t.Fatalf("degenerate report %+v", r)
		}
	}
	// Idempotent.
	again, err := l.EnsureLoaded(bID)
	if err != nil || again != nil {
		t.Fatalf("reload: %v %v", again, err)
	}
	st := l.Stats()
	if st.ClassesLoaded != 3 || st.BytesLoaded != 8000 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMergedSystemClassesAreFree(t *testing.T) {
	p := chainProgram(t)
	l := New(p, true) // Jikes: boot image
	if !l.Loaded(0) || !l.Loaded(1) {
		t.Fatal("system classes not preloaded")
	}
	if l.Loaded(2) {
		t.Fatal("app class preloaded")
	}
	reports, err := l.EnsureLoaded(1) // system class: no cost
	if err != nil || reports != nil {
		t.Fatalf("system load: %v %v", reports, err)
	}
	// Loading an app class does not recharge the preloaded super.
	reports, err = l.EnsureLoaded(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || p.Classes[reports[0].Class].Name != "A" {
		t.Fatalf("loads = %+v, want just A", reports)
	}
	if got := l.LoadedCount(); got != 3 {
		t.Fatalf("loaded count %d, want 3", got)
	}
}

func TestLoadCostScalesWithFileSize(t *testing.T) {
	p := chainProgram(t)
	l := New(p, false)
	r1, _ := l.EnsureLoaded(0) // Object, 1000 B
	l2 := New(p, false)
	l2.loaded[0] = true // skip Object
	l2.loaded[2] = true // skip A
	r2, _ := l2.EnsureLoaded(3)
	small := r1[0].Work.Instructions
	big := r2[0].Work.Instructions
	if big <= small {
		t.Fatalf("4000B class (%d instr) not costlier than 1000B class (%d instr)", big, small)
	}
}

func TestInvalidClassID(t *testing.T) {
	p := chainProgram(t)
	l := New(p, false)
	if _, err := l.EnsureLoaded(99); err == nil {
		t.Fatal("invalid class id accepted")
	}
}
