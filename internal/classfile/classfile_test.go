package classfile

import (
	"strings"
	"testing"

	"jvmpower/internal/isa"
)

func simpleProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("test")
	obj := b.AddClass(ClassSpec{Name: "Object", System: true})
	cls := b.AddClass(ClassSpec{
		Name:  "Widget",
		Super: "Object",
		Fields: []Field{
			{Name: "count", Kind: IntField},
			{Name: "next", Kind: RefField},
		},
		StaticInts: 1,
		StaticRefs: 1,
	})
	b.AddMethod(MethodSpec{
		Class: cls, Name: "get", RefArgs: []bool{true},
		Code: Asm(I(isa.ICONST, 1), I(isa.IRETURN)),
	})
	main := b.AddMethod(MethodSpec{
		Class: obj, Name: "main", ExtraSlots: 1,
		Code: Asm(I(isa.HALT)),
	})
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
	if p.SystemClasses() != 1 {
		t.Fatalf("system classes = %d, want 1", p.SystemClasses())
	}
	if p.Classes[1].FileBytes <= 0 {
		t.Fatal("derived file size should be positive")
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
	b.AddMethod(MethodSpec{Class: c, Name: "m", Code: Asm(I(isa.RETURN))})
	assertPanics(t, "duplicate method", func() {
		b.AddMethod(MethodSpec{Class: c, Name: "m", Code: Asm(I(isa.RETURN))})
	})
	assertPanics(t, "bad class id", func() {
		b.AddMethod(MethodSpec{Class: 99, Name: "x", Code: Asm(I(isa.RETURN))})
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

func TestValidateCatchesBadOperands(t *testing.T) {
	cases := []struct {
		name string
		code []isa.Instr
		want string
	}{
		{"bad local", Asm(I(isa.ILOAD, 9), I(isa.RETURN)), "invalid local"},
		{"bad class", Asm(I(isa.NEW, 99), I(isa.RETURN)), "invalid class"},
		{"bad method", Asm(I(isa.INVOKE, 99), I(isa.RETURN)), "invalid method"},
		{"bad static slot", Asm(I(isa.PUTSTATIC, 0, 7), I(isa.RETURN)), "static int slot"},
	}
	for _, c := range cases {
		b := NewBuilder("t")
		cls := b.AddClass(ClassSpec{Name: "Object", StaticInts: 1})
		m := b.AddMethod(MethodSpec{Class: cls, Name: "m", ExtraSlots: 1, Code: c.code})
		b.SetEntry(m)
		_, err := b.Build()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
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

func TestValidateRefArgsMismatch(t *testing.T) {
	p := simpleProgram(t)
	p.Methods[0].RefArgs = nil // corrupt
	if err := p.Validate(); err == nil {
		t.Fatal("expected RefArgs mismatch error")
	}

	// A class holds at most maxFields fields (the class-file format's u2
	// fields_count), which keeps a decoded program's reference counts
	// within the heap's 16-bit per-object count.
	p = simpleProgram(t)
	p.Classes[1].Fields = make([]Field, maxFields)
	if err := p.Validate(); err != nil {
		t.Fatalf("%d fields rejected: %v", maxFields, err)
	}
	p.Classes[1].Fields = append(p.Classes[1].Fields, Field{Kind: RefField})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "fields") {
		t.Fatalf("err = %v, want a field-count rejection", err)
	}
}
