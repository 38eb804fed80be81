// Package classloader implements dynamic lazy class loading, the "CL"
// component of the paper's decomposition. A class is loaded on first
// reference: its file is read, parsed, and verified; its superclass chain
// is resolved (loading recursively); and its runtime metadata is built.
//
// The package models the one structural difference the paper identifies as
// decisive for embedded energy (Section VI-E): Jikes merges system classes
// into the VM boot image, so only application classes pay load cost at run
// time, while Kaffe loads every system class lazily through the same path —
// which is why the class loader becomes the single largest energy consumer
// (18% average) for Kaffe on the PXA255.
package classloader

import (
	"fmt"

	"jvmpower/internal/classfile"
	"jvmpower/internal/units"
	"jvmpower/internal/work"
)

// Cost model for one class load. Loading walks the class file twice (parse
// then verify) and writes runtime metadata roughly a third the file's size.
// Class files and fresh metadata are cold — load work has mediocre data
// locality and a high instruction-fetch miss rate (the loader's code paths
// are themselves cold), producing the low-IPC, stall-heavy loader behavior
// the paper measures on the PXA255.
const (
	instrPerFileByte = 34
	parseReadFactor  = 0.26 // data reads per instruction
	metaWriteFactor  = 0.09 // data writes per instruction
	resolveInstr     = 900  // per resolved superclass/interface link

	loadLocality = 0.58
	// ICacheMissPerKInst for load slices.
	LoadICacheMissPerKInst = 7.0
)

// Report describes one class load performed.
type Report struct {
	Class     classfile.ClassID
	FileBytes units.ByteSize
	Work      work.Work
	// MetadataBytes is the runtime metadata footprint the VM should
	// allocate on the class's behalf.
	MetadataBytes units.ByteSize
}

// Stats accumulates loader activity.
type Stats struct {
	ClassesLoaded int64
	BytesLoaded   units.ByteSize
	TotalWork     work.Work
}

// Loader performs lazy class loading for one program instance.
type Loader struct {
	prog   *classfile.Program
	loaded []bool
	// mergedSystem marks system classes as preloaded (Jikes boot image):
	// loading them is free at run time.
	mergedSystem bool
	stats        Stats
}

// New returns a loader for prog. mergedSystem selects the Jikes behavior
// (system classes preloaded into the boot image).
func New(prog *classfile.Program, mergedSystem bool) *Loader {
	l := &Loader{
		prog:         prog,
		loaded:       make([]bool, len(prog.Classes)),
		mergedSystem: mergedSystem,
	}
	if mergedSystem {
		for i, c := range prog.Classes {
			if c.System {
				l.loaded[i] = true
			}
		}
	}
	return l
}

// Loaded reports whether a class has been loaded.
func (l *Loader) Loaded(id classfile.ClassID) bool {
	return l.loaded[id]
}

// LoadedCount reports how many classes are currently loaded (including
// boot-image classes for merged-system loaders).
func (l *Loader) LoadedCount() int {
	n := 0
	for _, ok := range l.loaded {
		if ok {
			n++
		}
	}
	return n
}

// Stats returns cumulative loader statistics.
func (l *Loader) Stats() Stats { return l.stats }

// EnsureLoaded loads a class if needed, resolving its superclass chain
// first, and returns one Report per class actually loaded (superclasses
// first). It returns nil when the class is already loaded.
func (l *Loader) EnsureLoaded(id classfile.ClassID) ([]Report, error) {
	if id < 0 || int(id) >= len(l.prog.Classes) {
		return nil, fmt.Errorf("classloader: invalid class id %d", id)
	}
	if l.loaded[id] {
		return nil, nil
	}
	var reports []Report
	var visit func(classfile.ClassID) error
	seen := make(map[classfile.ClassID]bool)
	visit = func(c classfile.ClassID) error {
		if l.loaded[c] {
			return nil
		}
		if seen[c] {
			return fmt.Errorf("classloader: superclass cycle through %q", l.prog.Classes[c].Name)
		}
		seen[c] = true
		cl := l.prog.Classes[c]
		if cl.Super != classfile.NoClass {
			if err := visit(cl.Super); err != nil {
				return err
			}
		}
		reports = append(reports, l.load(c))
		return nil
	}
	if err := visit(id); err != nil {
		return nil, err
	}
	return reports, nil
}

func (l *Loader) load(id classfile.ClassID) Report {
	c := l.prog.Classes[id]
	l.loaded[id] = true

	fb := float64(c.FileBytes)
	instr := fb * instrPerFileByte
	w := work.Work{
		Instructions: int64(instr),
		// Parsing and verification re-read the file image and constant
		// pool repeatedly and write metadata; traffic scales with effort.
		Reads:    int64(instr * parseReadFactor),
		Writes:   int64(instr * metaWriteFactor),
		Locality: loadLocality,
		MLP:      1.6, // parse is sequential but verification chases
	}
	links := int64(1) // superclass
	w.Instructions += links * resolveInstr

	r := Report{
		Class:         id,
		FileBytes:     c.FileBytes,
		Work:          w,
		MetadataBytes: units.ByteSize(int64(fb) / 3),
	}
	l.stats.ClassesLoaded++
	l.stats.BytesLoaded += c.FileBytes
	l.stats.TotalWork.Add(w)
	return r
}
