package workloads

import (
	"fmt"

	"jvmpower/internal/classfile"
	"jvmpower/internal/units"
)

// Program generation. Every benchmark program shares one system library
// (the java.* classes both VMs ship); application classes are generated to
// the benchmark's Structure. Generation is deterministic, so runs are
// reproducible bit-for-bit.
//
// A program is only its sizes (package classfile), yet the random stream
// keeps draws whose values no size reads: two per library or application
// class (skipFields) and, per method, those of a bytecode body of its
// length (bodyLen). They stay because every later draw depends on them:
// each class's super, file size and method sizes. Dropping one renames
// all 16 programs and moves every figure (TestProgramShapes and the
// figure digests fail).

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
	bld.AddMethod(classfile.MethodSpec{Class: object, Name: "init", Bytecodes: bodyLen(6, rng)})

	// System library.
	for i := 1; i < systemClasses; i++ {
		skipFields(rng)
		cid := bld.AddClass(classfile.ClassSpec{
			Name:      fmt.Sprintf("java.rt.S%03d", i),
			Super:     "java.lang.Object",
			System:    true,
			FileBytes: units.ByteSize(vary(rng, systemAvgFileBytes)),
		})
		for m := 0; m < systemMethodsPerClass; m++ {
			bld.AddMethod(classfile.MethodSpec{
				Class:     cid,
				Name:      fmt.Sprintf("m%d", m),
				Bytecodes: bodyLen(vary(rng, systemAvgMethodBC), rng),
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
		skipFields(rng)
		cid := bld.AddClass(classfile.ClassSpec{
			Name:       fmt.Sprintf("%s.C%04d", b.Name, i),
			Super:      super,
			StaticRefs: 1,
			FileBytes:  units.ByteSize(vary(rng, s.AvgClassFileBytes)),
		})
		for m := 0; m < s.MethodsPerClass; m++ {
			bld.AddMethod(classfile.MethodSpec{
				Class:     cid,
				Name:      fmt.Sprintf("m%d", m),
				Bytecodes: bodyLen(vary(rng, s.AvgMethodBytecodes), rng),
			})
		}
	}

	// Entry point.
	mainClass := bld.AddClass(classfile.ClassSpec{
		Name:      b.Name + ".Main",
		Super:     "java.lang.Object",
		FileBytes: 2048,
	})
	entry := bld.AddMethod(classfile.MethodSpec{Class: mainClass, Name: "main", Bytecodes: bodyLen(20, rng)})
	bld.SetEntry(entry)
	return bld.MustBuild()
}

// skipFields takes a class's two field-list draws: its int and reference
// field counts.
func skipFields(rng *rand) {
	rng.next()
	rng.next()
}

// bodyLen returns the length of a method body of n bytecodes (at least
// 2) and takes the draws that generate such a body: one block kind per
// block, plus the block's constants, until n-1 bytecodes are filled (the
// last is the return).
func bodyLen(n int, rng *rand) int {
	if n < 2 {
		n = 2
	}
	for filled := 0; filled < n-1; {
		switch rng.next() % 3 {
		case 0: // iconst, iconst, iadd, pop
			rng.next()
			rng.next()
			filled += 4
		case 1: // iconst, ineg, pop
			rng.next()
			filled += 3
		default: // nop
			filled++
		}
	}
	return n
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
