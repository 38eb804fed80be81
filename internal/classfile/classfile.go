// Package classfile models a program as the simulated virtual machine's
// class loader and compilers see it: classes, methods, and the program
// container that plays the role of a JAR file.
//
// A program is its sizes, the only facts the paper's measured components
// read from it: a class has a file size (the class loader's parse/verify
// cost is proportional to it), a method has a bytecode length (the
// compilers' cost is proportional to it), and a class may be a "system"
// class, which Jikes merges into the VM boot image but Kaffe loads lazily
// one by one — the root cause of the class-loading energy differences in
// Figures 9 and 11. Method bodies themselves are not modeled: like the
// paper's JVMs, which compile every method before it runs, the VM never
// interprets, and the batch engine runs a benchmark's behavior profile.
package classfile

import (
	"fmt"

	"jvmpower/internal/units"
)

// ClassID indexes a class within a Program.
type ClassID int32

// MethodID indexes a method within a Program (global across classes).
type MethodID int32

// NoClass is the sentinel "none" class, the Super of a root class.
const NoClass ClassID = -1

// Class describes one class.
type Class struct {
	ID    ClassID
	Name  string
	Super ClassID // NoClass for roots
	// StaticRefs is the number of static reference slots, which are GC
	// roots.
	StaticRefs int
	// System marks a runtime/system class (java.lang.*, I/O, collections).
	// Jikes configurations treat system classes as preloaded into the boot
	// image; Kaffe configurations load them lazily like any other class.
	System bool
	// FileBytes is the size of the class's on-disk representation; the
	// class loader's cost model (parse + verify + resolve) scales with it.
	FileBytes units.ByteSize
}

// Method describes one method.
type Method struct {
	ID    MethodID
	Class ClassID
	Name  string
	// Bytecodes is the method's bytecode length; the compilers' cost
	// models scale with it.
	Bytecodes int
}

// FullName returns "Class.method".
func (m *Method) FullName(p *Program) string {
	if p != nil && m.Class >= 0 && int(m.Class) < len(p.Classes) {
		return p.Classes[m.Class].Name + "." + m.Name
	}
	return m.Name
}

// Program is the unit of execution: a set of classes and methods plus an
// entry point. It corresponds to an application JAR plus the system library.
type Program struct {
	Name    string
	Classes []*Class
	Methods []*Method
	Entry   MethodID
}

// Class returns the class with the given ID.
func (p *Program) Class(id ClassID) *Class {
	if id < 0 || int(id) >= len(p.Classes) {
		panic(fmt.Sprintf("classfile: class id %d out of range (%d classes)", id, len(p.Classes)))
	}
	return p.Classes[id]
}

// Method returns the method with the given ID.
func (p *Program) Method(id MethodID) *Method {
	if id < 0 || int(id) >= len(p.Methods) {
		panic(fmt.Sprintf("classfile: method id %d out of range (%d methods)", id, len(p.Methods)))
	}
	return p.Methods[id]
}

// Validate checks structural well-formedness of the whole program: IDs are
// consistent, every super and every method's class exists, the entry
// exists, and every method has at least one bytecode.
func (p *Program) Validate() error {
	if len(p.Classes) == 0 {
		return fmt.Errorf("classfile: program %q has no classes", p.Name)
	}
	for i, c := range p.Classes {
		if c.ID != ClassID(i) {
			return fmt.Errorf("classfile: class %q has id %d at index %d", c.Name, c.ID, i)
		}
		if c.Super != NoClass && (c.Super < 0 || int(c.Super) >= len(p.Classes)) {
			return fmt.Errorf("classfile: class %q has invalid super %d", c.Name, c.Super)
		}
	}
	if p.Entry < 0 || int(p.Entry) >= len(p.Methods) {
		return fmt.Errorf("classfile: program %q entry %d out of range", p.Name, p.Entry)
	}
	for i, m := range p.Methods {
		if m.ID != MethodID(i) {
			return fmt.Errorf("classfile: method %q has id %d at index %d", m.Name, m.ID, i)
		}
		if m.Class < 0 || int(m.Class) >= len(p.Classes) {
			return fmt.Errorf("classfile: method %q has invalid class %d", m.Name, m.Class)
		}
		if m.Bytecodes < 1 {
			return fmt.Errorf("classfile: method %q has %d bytecodes", m.FullName(p), m.Bytecodes)
		}
	}
	return nil
}
