package classfile

import (
	"fmt"

	"jvmpower/internal/units"
)

// Builder assembles a Program incrementally. It is the programmatic
// equivalent of a compiler + jar tool and is used by internal/workloads to
// construct the synthetic benchmark programs and by tests to build small
// hand-written programs.
type Builder struct {
	prog    *Program
	byName  map[string]ClassID
	methods map[string]MethodID
}

// NewBuilder returns an empty builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		prog:    &Program{Name: name},
		byName:  make(map[string]ClassID),
		methods: make(map[string]MethodID),
	}
}

// ClassSpec describes a class to add.
type ClassSpec struct {
	Name       string
	Super      string // empty for a root class
	StaticRefs int
	System     bool
	FileBytes  units.ByteSize
}

// AddClass adds a class and returns its ID. Duplicate names panic: the
// builder is only driven by generators whose inputs are program bugs, not
// user data.
func (b *Builder) AddClass(spec ClassSpec) ClassID {
	if _, dup := b.byName[spec.Name]; dup {
		panic(fmt.Sprintf("classfile: duplicate class %q", spec.Name))
	}
	super := NoClass
	if spec.Super != "" {
		s, ok := b.byName[spec.Super]
		if !ok {
			panic(fmt.Sprintf("classfile: class %q names unknown super %q", spec.Name, spec.Super))
		}
		super = s
	}
	id := ClassID(len(b.prog.Classes))
	c := &Class{
		ID:         id,
		Name:       spec.Name,
		Super:      super,
		StaticRefs: spec.StaticRefs,
		System:     spec.System,
		FileBytes:  spec.FileBytes,
	}
	b.prog.Classes = append(b.prog.Classes, c)
	b.byName[spec.Name] = id
	return id
}

// MethodSpec describes a method to add.
type MethodSpec struct {
	Class     ClassID
	Name      string
	Bytecodes int
}

// AddMethod adds a method to a previously added class and returns its ID.
func (b *Builder) AddMethod(spec MethodSpec) MethodID {
	if spec.Class < 0 || int(spec.Class) >= len(b.prog.Classes) {
		panic(fmt.Sprintf("classfile: method %q names unknown class %d", spec.Name, spec.Class))
	}
	key := b.prog.Classes[spec.Class].Name + "." + spec.Name
	if _, dup := b.methods[key]; dup {
		panic(fmt.Sprintf("classfile: duplicate method %q", key))
	}
	id := MethodID(len(b.prog.Methods))
	m := &Method{
		ID:        id,
		Class:     spec.Class,
		Name:      spec.Name,
		Bytecodes: spec.Bytecodes,
	}
	b.prog.Methods = append(b.prog.Methods, m)
	b.methods[key] = id
	return id
}

// SetEntry marks the program entry point.
func (b *Builder) SetEntry(m MethodID) { b.prog.Entry = m }

// Build validates the program and returns it.
func (b *Builder) Build() (*Program, error) {
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// MustBuild is Build that panics on error, for generators and tests.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
