package workloads

import (
	"fmt"

	"jvmpower/internal/classfile"
	"jvmpower/internal/isa"
	"jvmpower/internal/units"
)

// Program generation. Every benchmark program shares one system library
// (the java.* classes both VMs ship); application classes are generated to
// the benchmark's Structure. Generation is deterministic, so runs are
// reproducible bit-for-bit.

// The shared system library's shape: both JVMs carry a couple hundred
// runtime classes that Kaffe loads lazily and Jikes bakes into its boot
// image.
const (
	systemClasses         = 200
	systemMethodsPerClass = 5
	systemAvgMethodBC     = 28
	systemAvgFileBytes    = 1200
)

// buildProgram generates a benchmark's program: system library + app
// classes + an entry point.
func buildProgram(b *Benchmark) *classfile.Program {
	bld := classfile.NewBuilder(b.Name)
	rng := newRand(hashName(b.Name))

	// Root object class.
	object := bld.AddClass(classfile.ClassSpec{
		Name:      "java.lang.Object",
		System:    true,
		FileBytes: 1200,
	})
	bld.AddMethod(classfile.MethodSpec{
		Class: object, Name: "init", RefArgs: []bool{true},
		Code: bodyOf(6, rng),
	})

	// System library.
	for i := 1; i < systemClasses; i++ {
		spec := classfile.ClassSpec{
			Name:      fmt.Sprintf("java.rt.S%03d", i),
			Super:     "java.lang.Object",
			Fields:    genFields(rng, 3, 1),
			System:    true,
			FileBytes: units.ByteSize(vary(rng, systemAvgFileBytes)),
		}
		cid := bld.AddClass(spec)
		for m := 0; m < systemMethodsPerClass; m++ {
			bld.AddMethod(classfile.MethodSpec{
				Class:   cid,
				Name:    fmt.Sprintf("m%d", m),
				RefArgs: []bool{true},
				Code:    bodyOf(vary(rng, systemAvgMethodBC), rng),
			})
		}
	}

	// Application classes.
	s := b.Structure
	for i := 0; i < s.AppClasses; i++ {
		super := "java.lang.Object"
		if i > 0 && rng.float() < 0.35 {
			super = fmt.Sprintf("%s.C%04d", b.Name, int(rng.next()%uint64(i)))
		}
		cid := bld.AddClass(classfile.ClassSpec{
			Name:       fmt.Sprintf("%s.C%04d", b.Name, i),
			Super:      super,
			Fields:     genFields(rng, 5, 2),
			StaticInts: 2,
			StaticRefs: 1,
			FileBytes:  units.ByteSize(vary(rng, s.AvgClassFileBytes)),
		})
		for m := 0; m < s.MethodsPerClass; m++ {
			bld.AddMethod(classfile.MethodSpec{
				Class:      cid,
				Name:       fmt.Sprintf("m%d", m),
				RefArgs:    []bool{true},
				ExtraSlots: 2,
				Code:       bodyOf(vary(rng, s.AvgMethodBytecodes), rng),
			})
		}
	}

	// Entry point.
	mainClass := bld.AddClass(classfile.ClassSpec{
		Name:      b.Name + ".Main",
		Super:     "java.lang.Object",
		FileBytes: 2048,
	})
	entry := bld.AddMethod(classfile.MethodSpec{
		Class: mainClass, Name: "main",
		ExtraSlots: 2,
		Code:       append(bodyOf(20, rng)[:19], classfile.I(isa.HALT)),
	})
	bld.SetEntry(entry)
	return bld.MustBuild()
}

// genFields produces a deterministic field list: up to maxInt int fields
// and maxRef reference fields.
func genFields(rng *rand, maxInt, maxRef int) []classfile.Field {
	var fs []classfile.Field
	ni := 1 + int(rng.next()%uint64(maxInt))
	nr := int(rng.next() % uint64(maxRef+1))
	for i := 0; i < ni; i++ {
		fs = append(fs, classfile.Field{Name: fmt.Sprintf("i%d", i), Kind: classfile.IntField})
	}
	for i := 0; i < nr; i++ {
		fs = append(fs, classfile.Field{Name: fmt.Sprintf("r%d", i), Kind: classfile.RefField})
	}
	return fs
}

// bodyOf generates a structurally valid method body of approximately n
// bytecodes: stack-balanced arithmetic blocks closed by a RETURN. Bodies
// exist to give the loader and compilers realistically sized inputs; the
// batch engine never executes them.
func bodyOf(n int, rng *rand) []isa.Instr {
	if n < 2 {
		n = 2
	}
	code := make([]isa.Instr, 0, n)
	for len(code) < n-1 {
		switch rng.next() % 3 {
		case 0:
			code = append(code,
				classfile.I(isa.ICONST, int32(rng.next()%100)),
				classfile.I(isa.ICONST, int32(rng.next()%100)),
				classfile.I(isa.IADD),
				classfile.I(isa.POP))
		case 1:
			code = append(code,
				classfile.I(isa.ICONST, int32(rng.next()%64)),
				classfile.I(isa.INEG),
				classfile.I(isa.POP))
		default:
			code = append(code, classfile.I(isa.NOP))
		}
	}
	code = code[:n-1]
	// Re-balance: count pushes/pops to keep the tail valid. The blocks
	// above are balanced, but truncation can split one; pad with NOPs to
	// the same length instead of risking imbalance.
	code = rebalance(code)
	return append(code, classfile.I(isa.RETURN))
}

// rebalance rewrites any truncated partial block so the body never
// underflows the operand stack under linear execution. Values left on the
// stack at RETURN are harmless (the frame is discarded).
func rebalance(code []isa.Instr) []isa.Instr {
	depth := 0
	for i, in := range code {
		switch in.Op {
		case isa.ICONST:
			depth++
		case isa.IADD:
			if depth < 2 {
				code[i] = classfile.I(isa.NOP)
				continue
			}
			depth--
		case isa.INEG:
			if depth < 1 {
				code[i] = classfile.I(isa.NOP)
			}
		case isa.POP:
			if depth < 1 {
				code[i] = classfile.I(isa.NOP)
				continue
			}
			depth--
		}
	}
	return code
}

// vary returns a deterministic value in [0.5×avg, 1.5×avg).
func vary(rng *rand, avg int) int {
	if avg < 2 {
		return avg
	}
	return avg/2 + int(rng.next()%uint64(avg))
}

// rand is a splitmix64 sequence.
type rand struct{ s uint64 }

func newRand(seed uint64) *rand { return &rand{s: seed} }

func (r *rand) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	x := r.s
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func (r *rand) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
