// Package work defines the unit in which VM services account for the
// processor work they perform: instruction counts, data memory traffic, and
// an access-locality characterization. Garbage collections, class loads,
// and compilations all report Work, which the VM prices through the
// platform timing model as execution slices attributed to their component.
package work

// Work quantifies processor work: instructions, data memory reads and
// writes (in words), the locality of those accesses in [0,1] (see
// cpu.AnalyticMisses for the locality semantics), and the access pattern's
// miss-level parallelism.
type Work struct {
	Instructions int64
	Reads        int64
	Writes       int64
	Locality     float64
	// MLP is the pattern's memory-level parallelism: how many misses can
	// be in flight together. Streaming passes (GC copy, sweep) sustain
	// high MLP; dependent pointer chases sit near 1. Out-of-order cores
	// convert MLP into hidden latency; in-order cores barely can.
	MLP float64
}

// Add merges w2 into w, weighting locality and MLP by access volume. It
// merges totals, such as a collection's phases or a run's collections;
// each costs two float divisions, so a collector does not call it per
// object but counts a phase's volumes and prices the phase once.
func (w *Work) Add(w2 Work) {
	a1 := w.Reads + w.Writes
	a2 := w2.Reads + w2.Writes
	if a1+a2 > 0 {
		w.Locality = (w.Locality*float64(a1) + w2.Locality*float64(a2)) / float64(a1+a2)
		w.MLP = (w.MLP*float64(a1) + w2.MLP*float64(a2)) / float64(a1+a2)
	}
	w.Instructions += w2.Instructions
	w.Reads += w2.Reads
	w.Writes += w2.Writes
}

// Scale returns w with all volumes multiplied by k (locality unchanged).
func (w Work) Scale(k float64) Work {
	return Work{
		Instructions: int64(float64(w.Instructions) * k),
		Reads:        int64(float64(w.Reads) * k),
		Writes:       int64(float64(w.Writes) * k),
		Locality:     w.Locality,
		MLP:          w.MLP,
	}
}

// IsZero reports whether the work is empty.
func (w Work) IsZero() bool {
	return w.Instructions == 0 && w.Reads == 0 && w.Writes == 0
}
