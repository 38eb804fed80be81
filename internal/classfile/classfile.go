// Package classfile models the on-disk representation of programs executed
// by the simulated virtual machine: classes, fields, methods, and the
// program container that plays the role of a JAR file.
//
// The model intentionally mirrors the aspects of real Java class files that
// the paper's measured components care about: classes have sizes (the class
// loader's parse/verify cost is proportional to them), methods carry bytecode
// (the compilers' cost is proportional to it), and classes may be "system"
// classes, which Jikes merges into the VM boot image but Kaffe loads lazily
// one by one — the root cause of the class-loading energy differences in
// Figures 9 and 11.
package classfile

import (
	"fmt"

	"jvmpower/internal/isa"
	"jvmpower/internal/units"
)

// ClassID indexes a class within a Program.
type ClassID int32

// MethodID indexes a method within a Program (global across classes).
type MethodID int32

// NoClass is the sentinel "none" class, the Super of a root class.
const NoClass ClassID = -1

// FieldKind distinguishes scalar from reference fields; the garbage
// collector only traces reference fields.
type FieldKind uint8

// Field kinds.
const (
	IntField FieldKind = iota
	RefField
)

// maxFields bounds a class's instance fields, as the JVM class-file
// format's u2 fields_count does. It also keeps every instance's reference
// count within the heap's 16-bit per-object count.
const maxFields = 1<<16 - 1

// Field describes one instance field.
type Field struct {
	Name string
	Kind FieldKind
}

// Class describes one class.
type Class struct {
	ID      ClassID
	Name    string
	Super   ClassID // NoClass for roots
	Fields  []Field // instance fields, in layout order
	Methods []MethodID
	// StaticInts and StaticRefs give the number of static slots of each
	// kind. Static reference slots are GC roots.
	StaticInts int
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
	// NArgs is the number of argument slots; arguments occupy the first
	// locals. RefArgs flags which argument slots hold references.
	NArgs   int
	RefArgs []bool
	// NLocals is the total number of local slots including arguments.
	NLocals int
	Code    []isa.Instr
}

// FullName returns "Class.method".
func (m *Method) FullName(p *Program) string {
	if p != nil && m.Class >= 0 && int(m.Class) < len(p.Classes) {
		return p.Classes[m.Class].Name + "." + m.Name
	}
	return m.Name
}

// Size returns the bytecode length; compiler cost models scale with it.
func (m *Method) Size() int { return len(m.Code) }

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

// SystemClasses counts classes marked System.
func (p *Program) SystemClasses() int {
	n := 0
	for _, c := range p.Classes {
		if c.System {
			n++
		}
	}
	return n
}

// Validate checks structural well-formedness of the whole program: IDs are
// consistent, the entry exists, every method body validates, and every
// class/method/field reference in every instruction is in range.
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
		if len(c.Fields) > maxFields {
			return fmt.Errorf("classfile: class %q has %d fields, more than %d", c.Name, len(c.Fields), maxFields)
		}
		for _, m := range c.Methods {
			if m < 0 || int(m) >= len(p.Methods) {
				return fmt.Errorf("classfile: class %q lists invalid method %d", c.Name, m)
			}
			if p.Methods[m].Class != c.ID {
				return fmt.Errorf("classfile: method %q listed by class %q but owned by class %d",
					p.Methods[m].Name, c.Name, p.Methods[m].Class)
			}
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
		if m.NArgs > m.NLocals {
			return fmt.Errorf("classfile: method %q has %d args but %d locals", m.Name, m.NArgs, m.NLocals)
		}
		if len(m.RefArgs) != m.NArgs {
			return fmt.Errorf("classfile: method %q RefArgs length %d != NArgs %d", m.Name, len(m.RefArgs), m.NArgs)
		}
		if err := isa.Validate(m.Code); err != nil {
			return fmt.Errorf("classfile: method %q: %w", m.FullName(p), err)
		}
		if err := p.checkOperands(m); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) checkOperands(m *Method) error {
	for pc, in := range m.Code {
		bad := func(what string) error {
			return fmt.Errorf("classfile: method %q pc %d (%s): invalid %s %d",
				m.FullName(p), pc, in, what, in.A)
		}
		switch in.Op {
		case isa.ILOAD, isa.ISTORE, isa.ALOAD, isa.ASTORE:
			if in.A < 0 || int(in.A) >= m.NLocals {
				return bad("local")
			}
		case isa.NEW:
			if in.A < 0 || int(in.A) >= len(p.Classes) {
				return bad("class")
			}
		case isa.INVOKE:
			if in.A < 0 || int(in.A) >= len(p.Methods) {
				return bad("method")
			}
		case isa.GETSTATIC, isa.PUTSTATIC:
			if in.A < 0 || int(in.A) >= len(p.Classes) {
				return bad("class")
			}
			if in.B < 0 || int(in.B) >= p.Classes[in.A].StaticInts {
				return fmt.Errorf("classfile: method %q pc %d: static int slot %d out of range", m.FullName(p), pc, in.B)
			}
		case isa.GETSTATICREF, isa.PUTSTATICREF:
			if in.A < 0 || int(in.A) >= len(p.Classes) {
				return bad("class")
			}
			if in.B < 0 || int(in.B) >= p.Classes[in.A].StaticRefs {
				return fmt.Errorf("classfile: method %q pc %d: static ref slot %d out of range", m.FullName(p), pc, in.B)
			}
		}
	}
	return nil
}
