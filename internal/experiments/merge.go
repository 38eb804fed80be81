package experiments

import (
	"fmt"
	"io"
	"os"
	"sort"

	"jvmpower/internal/metrics"
)

// Journal merge: the resume story for a campaign split across a fleet or
// across several coordinator shards. Each shard run writes its own journal;
// MergeJournals folds any set of them into one canonical journal that
// LoadResume consumes exactly as it would a single-process run's — which is
// what lets `-resume` finish a fleet campaign on one machine, or vice
// versa.
//
// The merged output is a pure function of the SET of resolved points, not
// of shard order, interleaving, or how many times a point appears:
//
//   - only point-completion lines participate; node lifecycle, fault, and
//     breaker events (any line with a non-empty "event") are provenance,
//     not completion state, and are dropped;
//   - per point identity, any "ok" outcome beats any error (some shard
//     finished it; the cache has it), and among competing error strings the
//     lexicographically smallest wins so ties resolve without reference to
//     arrival order;
//   - the survivors are emitted sorted by point identity with the volatile
//     fields (source, duration, attempts) dropped or canonicalized —
//     Source becomes "merged" — and any field mergeEvent does not read,
//     such as the "memo" tag older journals carry, dropped.
//
// Merging the same shards in any order therefore produces byte-identical
// output, which TestMergeJournalsOrderIndependent pins.

// mergeEvent is the journal-line shape MergeJournals reads: the point
// identity and outcome of a PointEvent, plus the event discriminator that
// identifies (and excludes) every non-point record.
type mergeEvent struct {
	Event     string `json:"event"`
	Bench     string `json:"bench"`
	Flavor    string `json:"flavor"`
	Collector string `json:"collector"`
	HeapMB    int    `json:"heap_mb"`
	Platform  string `json:"platform"`
	S10       bool   `json:"s10"`
	FanOff    bool   `json:"fan_off"`
	Outcome   string `json:"outcome"`
	Error     string `json:"error"`
}

// mergeIdentity is the comparable point identity merged journals resolve
// over — the same fields LoadResume keys on.
type mergeIdentity struct {
	bench, flavor, collector string
	heapMB                   int
	platform                 string
	s10, fanOff              bool
}

// MergeSalvage is one input journal's corruption accounting in a
// MergeReport.
type MergeSalvage struct {
	Path    string
	Salvage metrics.SalvageReport
}

// MergeReport is the accounting of one MergeJournals: per-input salvage
// results, so a fleet resume that merged a crash-torn shard journal says
// so instead of silently resolving fewer points.
type MergeReport struct {
	Inputs []MergeSalvage
}

// Clean reports whether every input journal decoded without drops.
func (mr MergeReport) Clean() bool {
	for _, in := range mr.Inputs {
		if !in.Salvage.Clean() {
			return false
		}
	}
	return true
}

// String renders the non-clean inputs, one per line.
func (mr MergeReport) String() string {
	s := ""
	for _, in := range mr.Inputs {
		if in.Salvage.Clean() {
			continue
		}
		if s != "" {
			s += "\n"
		}
		s += fmt.Sprintf("%s: %s", in.Path, in.Salvage)
	}
	return s
}

// MergeJournals resolves the point-completion records of every journal in
// paths into one canonical journal written to out, returning how many
// resolved points completed successfully (the count a subsequent LoadResume
// of the merged journal will report) plus per-input salvage accounting.
// See the package comment above for the resolution rules that make the
// output independent of shard order.
//
// Inputs are read through the salvaging decoder: a shard journal with a
// crash-torn or corrupted tail contributes its valid prefix and is noted
// in the report rather than failing the whole merge — exactly what a
// fleet resume after a node SIGKILL needs. Only I/O errors (an unreadable
// file, a failed write to out) abort.
func MergeJournals(out io.Writer, paths ...string) (int, MergeReport, error) {
	var report MergeReport
	resolved := make(map[mergeIdentity]mergeEvent)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return 0, report, fmt.Errorf("experiments: merge: %w", err)
		}
		events, salvage, err := metrics.DecodeJournalSalvage[mergeEvent](f)
		f.Close()
		if err != nil {
			return 0, report, fmt.Errorf("experiments: merge: reading %s: %w", path, err)
		}
		report.Inputs = append(report.Inputs, MergeSalvage{Path: path, Salvage: salvage})
		for _, ev := range events {
			if ev.Event != "" {
				continue // node/fault/breaker provenance, not completion state
			}
			id := mergeIdentity{
				bench: ev.Bench, flavor: ev.Flavor, collector: ev.Collector,
				heapMB: ev.HeapMB, platform: ev.Platform, s10: ev.S10, fanOff: ev.FanOff,
			}
			resolved[id] = resolveOutcome(resolved[id], ev)
		}
	}
	ids := make([]mergeIdentity, 0, len(resolved))
	for id := range resolved {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return mergeLess(ids[i], ids[j]) })
	ok := 0
	for _, id := range ids {
		ev := resolved[id]
		if ev.Outcome == "ok" {
			ok++
		}
		// Merged output goes through the record encoder, so it carries the
		// same CRC envelope live journals do: a merged journal is as
		// crash-verifiable as the shards it resolved.
		line, err := metrics.EncodeRecord(PointEvent{
			Bench: id.bench, Flavor: id.flavor, Collector: id.collector,
			HeapMB: id.heapMB, Platform: id.platform, S10: id.s10, FanOff: id.fanOff,
			Outcome: ev.Outcome, Source: "merged", Error: ev.Error,
		})
		if err != nil {
			return 0, report, fmt.Errorf("experiments: merge: %w", err)
		}
		if _, err := out.Write(line); err != nil {
			return 0, report, fmt.Errorf("experiments: merge: %w", err)
		}
	}
	return ok, report, nil
}

// resolveOutcome folds one more shard record into a point's resolution.
// The zero mergeEvent (no record yet) loses to anything; "ok" beats every
// error; between errors the lexicographically smaller string wins, so the
// winner does not depend on which shard's journal was read first.
func resolveOutcome(have, next mergeEvent) mergeEvent {
	if have.Outcome == "" {
		return next
	}
	if have.Outcome == "ok" {
		return have
	}
	if next.Outcome == "ok" {
		return next
	}
	if next.Error < have.Error {
		return next
	}
	return have
}

// mergeLess orders point identities canonically for merged output: the
// same field order the identity prints in (bench, flavor, collector, heap,
// platform, s10, fanOff).
func mergeLess(a, b mergeIdentity) bool {
	if a.bench != b.bench {
		return a.bench < b.bench
	}
	if a.flavor != b.flavor {
		return a.flavor < b.flavor
	}
	if a.collector != b.collector {
		return a.collector < b.collector
	}
	if a.heapMB != b.heapMB {
		return a.heapMB < b.heapMB
	}
	if a.platform != b.platform {
		return a.platform < b.platform
	}
	if a.s10 != b.s10 {
		return b.s10
	}
	return b.fanOff
}
