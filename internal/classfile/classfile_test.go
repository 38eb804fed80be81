package classfile

import (
	"strings"
	"testing"
)

func simpleProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("test")
	obj := b.AddClass(ClassSpec{Name: "Object", System: true, FileBytes: 1000})
	cls := b.AddClass(ClassSpec{
		Name:       "Widget",
		Super:      "Object",
		StaticRefs: 1,
		FileBytes:  2000,
	})
	b.AddMethod(MethodSpec{Class: cls, Name: "get", Bytecodes: 2})
	main := b.AddMethod(MethodSpec{Class: obj, Name: "main", Bytecodes: 1})
	b.SetEntry(main)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func TestBuilderBuildsValidProgram(t *testing.T) {
	p := simpleProgram(t)
	if len(p.Classes) != 2 || len(p.Methods) != 2 {
		t.Fatalf("got %d classes, %d methods", len(p.Classes), len(p.Methods))
	}
	w := p.Classes[1]
	if w.Super != 0 || w.StaticRefs != 1 || w.System || w.FileBytes != 2000 {
		t.Fatalf("Widget = %+v", *w)
	}
	if m := p.Method(0); m.Class != 1 || m.Bytecodes != 2 || p.Entry != 1 {
		t.Fatalf("get = %+v, entry %d", *m, p.Entry)
	}
}

func TestBuilderPanicsOnDuplicates(t *testing.T) {
	b := NewBuilder("t")
	b.AddClass(ClassSpec{Name: "A"})
	assertPanics(t, "duplicate class", func() { b.AddClass(ClassSpec{Name: "A"}) })
	assertPanics(t, "unknown super", func() { b.AddClass(ClassSpec{Name: "B", Super: "Nope"}) })
}

func TestBuilderPanicsOnBadMethod(t *testing.T) {
	b := NewBuilder("t")
	c := b.AddClass(ClassSpec{Name: "A"})
	b.AddMethod(MethodSpec{Class: c, Name: "m", Bytecodes: 1})
	assertPanics(t, "duplicate method", func() {
		b.AddMethod(MethodSpec{Class: c, Name: "m", Bytecodes: 1})
	})
	assertPanics(t, "bad class id", func() {
		b.AddMethod(MethodSpec{Class: 99, Name: "x", Bytecodes: 1})
	})
}

func assertPanics(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

type corruption struct {
	name    string
	corrupt func(*Program)
	want    string
}

// corruptions applies each corruption to a fresh valid program; Validate
// must reject each with an error naming it.
func corruptions(t *testing.T, cases []corruption) {
	t.Helper()
	for _, c := range cases {
		p := simpleProgram(t)
		c.corrupt(p)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

// TestValidateCatchesBadOperands checks the operands a class file still
// carries: a class's super, a method's class and the entry method must
// exist, and a method must have at least one bytecode. The entry and the
// bytecode length reach Build unchecked by the Builder, so Build must
// reject them too.
func TestValidateCatchesBadOperands(t *testing.T) {
	corruptions(t, []corruption{
		{"super", func(p *Program) { p.Classes[1].Super = 7 }, "invalid super 7"},
		{"entry", func(p *Program) { p.Entry = 2 }, "entry 2 out of range"},
		{"method class", func(p *Program) { p.Methods[0].Class = 9 }, "invalid class 9"},
		{"empty method", func(p *Program) { p.Methods[0].Bytecodes = 0 }, `"Widget.get" has 0 bytecodes`},
	})

	builds := []struct {
		name      string
		entry     MethodID
		bytecodes int
		want      string
	}{
		{"bad entry", 99, 1, "entry 99 out of range"},
		{"empty method", 0, 0, `"Object.m" has 0 bytecodes`},
		{"negative length", 0, -3, `"Object.m" has -3 bytecodes`},
	}
	for _, c := range builds {
		b := NewBuilder("t")
		cls := b.AddClass(ClassSpec{Name: "Object", FileBytes: 100})
		b.AddMethod(MethodSpec{Class: cls, Name: "m", Bytecodes: c.bytecodes})
		b.SetEntry(c.entry)
		_, err := b.Build()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("build %s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

// TestValidateRefArgsMismatch checks the facts that must agree with one
// another: every class and method ID must equal its index in the
// program's tables, since the class loader, compilers and VM index those
// tables by ID. A program must also have a class to load.
func TestValidateRefArgsMismatch(t *testing.T) {
	corruptions(t, []corruption{
		{"class id", func(p *Program) { p.Classes[1].ID = 5 }, "has id 5 at index 1"},
		{"method id", func(p *Program) { p.Methods[0].ID = 1 }, "has id 1 at index 0"},
		{"swapped methods", func(p *Program) { p.Methods[0], p.Methods[1] = p.Methods[1], p.Methods[0] }, "has id 1 at index 0"},
	})
	if err := (&Program{Name: "empty"}).Validate(); err == nil || !strings.Contains(err.Error(), "no classes") {
		t.Errorf("no classes: err = %v", err)
	}
}

func TestProgramAccessorsPanicOutOfRange(t *testing.T) {
	p := simpleProgram(t)
	assertPanics(t, "bad class id", func() { p.Class(42) })
	assertPanics(t, "bad method id", func() { p.Method(-1) })
}

func TestMethodFullName(t *testing.T) {
	p := simpleProgram(t)
	m := p.Method(0)
	if got := m.FullName(p); got != "Widget.get" {
		t.Fatalf("full name = %q", got)
	}
}
