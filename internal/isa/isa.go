// Package isa defines the mini bytecode instruction set of the simulated
// programs' method bodies.
//
// The ISA is a deliberately small, Java-bytecode-flavored stack machine: it
// has integer arithmetic, local variable slots, an operand stack, object and
// array allocation, field access, static fields, and method invocation. It
// gives the synthetic benchmark programs in internal/workloads method bodies
// of realistic size, which the class loader and the compilers price, while
// staying small enough that those cost models remain transparent. Nothing
// executes the instructions: like the paper's JVMs, which compile every
// method before it runs, the VM runs a benchmark's behavior profile, and
// the compilers charge per bytecode compiled.
package isa

import "fmt"

// Opcode identifies an instruction.
type Opcode uint8

// Instruction opcodes. The operand columns describe how Instr.A and Instr.B
// are interpreted for each opcode.
const (
	NOP Opcode = iota

	// Constants and locals.
	ICONST // push A
	ILOAD  // push locals[A]
	ISTORE // locals[A] = pop
	ALOAD  // push reference locals[A]
	ASTORE // locals[A] = pop reference

	// Arithmetic and logic (pop two, push one unless noted).
	IADD
	ISUB
	IMUL
	IDIV // pops divisor first; division by zero raises a VM error
	IREM
	INEG // pop one, push one
	ISHL
	ISHR
	IAND
	IOR
	IXOR

	// Stack manipulation.
	DUP
	POP
	SWAP

	// Control flow. A is the absolute target PC within the method.
	GOTO
	IFEQ     // pop; branch if == 0
	IFNE     // pop; branch if != 0
	IFLT     // pop; branch if < 0
	IFGE     // pop; branch if >= 0
	IFGT     // pop; branch if > 0
	IFLE     // pop; branch if <= 0
	IFICMPLT // pop b, a; branch if a < b
	IFICMPGE // pop b, a; branch if a >= b
	IFNULL   // pop ref; branch if null

	// Objects and arrays. A is a class index or element count source.
	NEW      // A = class index; push new object reference
	NEWARRAY // pop length; A = element size in bytes; push array reference
	GETFIELD // pop ref; A = field index; push value
	PUTFIELD // pop value, ref; A = field index
	GETREF   // pop ref; A = reference-field index; push reference
	PUTREF   // pop ref value, ref; A = reference-field index (barriered)
	IALOAD   // pop index, arrayref; push element
	IASTORE  // pop value, index, arrayref
	ARRAYLEN // pop arrayref; push length

	// Statics. A = class index, B = static slot.
	GETSTATIC
	PUTSTATIC
	GETSTATICREF
	PUTSTATICREF // barriered reference store

	// Calls. A = method index (program-global). Arguments are popped from
	// the operand stack into the callee's first locals.
	INVOKE
	RETURN  // return void
	IRETURN // return popped int
	ARETURN // return popped reference

	// HALT stops the program (valid only in the entry method).
	HALT

	numOpcodes
)

var opNames = [numOpcodes]string{
	NOP: "nop", ICONST: "iconst", ILOAD: "iload", ISTORE: "istore",
	ALOAD: "aload", ASTORE: "astore",
	IADD: "iadd", ISUB: "isub", IMUL: "imul", IDIV: "idiv", IREM: "irem",
	INEG: "ineg", ISHL: "ishl", ISHR: "ishr", IAND: "iand", IOR: "ior", IXOR: "ixor",
	DUP: "dup", POP: "pop", SWAP: "swap",
	GOTO: "goto", IFEQ: "ifeq", IFNE: "ifne", IFLT: "iflt", IFGE: "ifge",
	IFGT: "ifgt", IFLE: "ifle", IFICMPLT: "if_icmplt", IFICMPGE: "if_icmpge",
	IFNULL: "ifnull",
	NEW:    "new", NEWARRAY: "newarray", GETFIELD: "getfield", PUTFIELD: "putfield",
	GETREF: "getref", PUTREF: "putref",
	IALOAD: "iaload", IASTORE: "iastore", ARRAYLEN: "arraylength",
	GETSTATIC: "getstatic", PUTSTATIC: "putstatic",
	GETSTATICREF: "getstaticref", PUTSTATICREF: "putstaticref",
	INVOKE: "invoke", RETURN: "return", IRETURN: "ireturn", ARETURN: "areturn",
	HALT: "halt",
}

// String returns the mnemonic for op.
func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return op < numOpcodes }

// IsBranch reports whether op may transfer control to Instr.A.
func (op Opcode) IsBranch() bool {
	switch op {
	case GOTO, IFEQ, IFNE, IFLT, IFGE, IFGT, IFLE, IFICMPLT, IFICMPGE, IFNULL:
		return true
	}
	return false
}

// IsReturn reports whether op exits the current method.
func (op Opcode) IsReturn() bool {
	return op == RETURN || op == IRETURN || op == ARETURN
}

// Instr is one fixed-format instruction. The meaning of A and B depends on
// the opcode; see the opcode list.
type Instr struct {
	Op   Opcode
	A, B int32
}

// String renders the instruction in assembler-like form.
func (in Instr) String() string {
	switch in.Op {
	case NOP, IADD, ISUB, IMUL, IDIV, IREM, INEG, ISHL, ISHR, IAND, IOR, IXOR,
		DUP, POP, SWAP, RETURN, IRETURN, ARETURN, HALT, ARRAYLEN:
		return in.Op.String()
	case GETSTATIC, PUTSTATIC, GETSTATICREF, PUTSTATICREF:
		return fmt.Sprintf("%s %d.%d", in.Op, in.A, in.B)
	default:
		return fmt.Sprintf("%s %d", in.Op, in.A)
	}
}

// Validate performs a lightweight structural verification of a method body:
// every branch target must be in range, the final instruction must be a
// return, halt, or goto, and every opcode must be defined. It returns the
// first problem found.
func Validate(code []Instr) error {
	if len(code) == 0 {
		return fmt.Errorf("isa: empty code")
	}
	for pc, in := range code {
		if !in.Op.Valid() {
			return fmt.Errorf("isa: pc %d: invalid opcode %d", pc, uint8(in.Op))
		}
		if in.Op.IsBranch() {
			if in.A < 0 || int(in.A) >= len(code) {
				return fmt.Errorf("isa: pc %d: branch target %d out of range [0,%d)", pc, in.A, len(code))
			}
		}
	}
	last := code[len(code)-1].Op
	if !last.IsReturn() && last != GOTO && last != HALT {
		return fmt.Errorf("isa: method falls off end (last opcode %s)", last)
	}
	return nil
}
