package jit

import (
	"jvmpower/internal/classfile"
)

// AOS is the Jikes RVM adaptive optimization system (Arnold et al., cited
// by the paper in Section IV-A): it watches per-method execution volume
// and, when a method crosses the hotness threshold, queues it for
// recompilation by the optimizing compiler, which runs on its own thread.
// The VM drains CompileQueue between scheduling quanta, attributing the
// work to the Opt component — the same interleaving the paper's
// scheduler-level instrumentation observes.
type AOS struct {
	// HotThresholdBytecodes is the execution volume at which a method is
	// declared hot. The Jikes controller uses a cost/benefit estimate from
	// timer samples; a volume threshold reproduces its observable effect
	// (the hottest methods, and only those, get optimized).
	HotThresholdBytecodes int64

	executed map[classfile.MethodID]int64
	tier     map[classfile.MethodID]Tier
	queue    []classfile.MethodID
	queued   map[classfile.MethodID]bool

	baselineCompiles int64
	optCompiles      int64
}

// NewAOS returns an adaptive optimization system with the given hotness
// threshold.
func NewAOS(hotThreshold int64) *AOS {
	return &AOS{
		HotThresholdBytecodes: hotThreshold,
		executed:              make(map[classfile.MethodID]int64),
		tier:                  make(map[classfile.MethodID]Tier),
		queue:                 nil,
		queued:                make(map[classfile.MethodID]bool),
	}
}

// Tier reports a method's current compilation tier.
func (a *AOS) Tier(m classfile.MethodID) Tier { return a.tier[m] }

// SetTier records the tier of a compiled method.
func (a *AOS) SetTier(m classfile.MethodID, t Tier) {
	a.tier[m] = t
	switch t {
	case TierBaseline, TierKaffeJIT:
		a.baselineCompiles++
	case TierOpt:
		a.optCompiles++
	}
}

// SetTierPreloaded records a tier without counting a compilation — for
// boot-image methods, which Jikes ships precompiled at the optimizing
// level.
func (a *AOS) SetTierPreloaded(m classfile.MethodID, t Tier) { a.tier[m] = t }

// NoteExecution records that bytecodes of method m were executed and
// enqueues m for optimizing recompilation when it crosses the threshold.
// Only baseline-compiled methods are promoted (Kaffe has no second tier).
func (a *AOS) NoteExecution(m classfile.MethodID, bytecodes int64) {
	a.executed[m] += bytecodes
	if a.tier[m] != TierBaseline || a.queued[m] {
		return
	}
	if a.executed[m] >= a.HotThresholdBytecodes {
		a.queue = append(a.queue, m)
		a.queued[m] = true
	}
}

// Executed reports the cumulative bytecode volume recorded for a method.
func (a *AOS) Executed(m classfile.MethodID) int64 { return a.executed[m] }

// NextCompile pops the next queued recompilation, or ok=false.
func (a *AOS) NextCompile() (classfile.MethodID, bool) {
	if len(a.queue) == 0 {
		return 0, false
	}
	m := a.queue[0]
	a.queue = a.queue[1:]
	delete(a.queued, m)
	return m, true
}

// PendingCompiles reports the queue depth.
func (a *AOS) PendingCompiles() int { return len(a.queue) }

// Compiles reports (first-tier, optimizing) compile counts.
func (a *AOS) Compiles() (baseline, opt int64) {
	return a.baselineCompiles, a.optCompiles
}
