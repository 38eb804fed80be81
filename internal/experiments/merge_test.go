package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jvmpower/internal/metrics"
)

// legacyPointEvent is a PointEvent as journals written with the deleted
// sweep-fork memoization layer recorded it: the same fields plus a "memo"
// outcome tag ("recorded", "hit" or "miss"). Journal.Record seals it with
// metrics.EncodeRecord, as it sealed those journals' lines.
type legacyPointEvent struct {
	PointEvent
	Tag string `json:"memo"`
}

// tagLegacyMemo rewrites a journal of PointEvents as a memoized run would
// have written it, each record tagged "recorded" or "hit", and returns the
// number of ok records.
func tagLegacyMemo(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := metrics.DecodeJournal[PointEvent](f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	tagged := make([]any, len(evs))
	ok := 0
	for i, ev := range evs {
		tagged[i] = legacyPointEvent{ev, [2]string{"recorded", "hit"}[i%2]}
		if ev.Outcome == "ok" {
			ok++
		}
	}
	writeShardJournal(t, path, tagged...)
	return ok
}

func writeShardJournal(t *testing.T, path string, events ...any) {
	t.Helper()
	j, err := metrics.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := j.Record(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeJournalsOrderIndependent is the merge property test: resolving
// the same set of shard journals in every permutation must produce
// byte-identical output and the same resolved point set — ok beating
// error, and error ties breaking lexicographically rather than by arrival
// order. Non-point lines (node, fault) must not leak into the merge, and a
// shard written with memoization on merges with its "memo" tags dropped.
func TestMergeJournalsOrderIndependent(t *testing.T) {
	dir := t.TempDir()
	pe := func(bench string, heap int, outcome, errstr string) PointEvent {
		return PointEvent{
			Bench: bench, Flavor: "JikesRVM", Collector: "GenMS", HeapMB: heap,
			Platform: "P6", Outcome: outcome, Source: "fleet",
			DurationMS: 12.5, Attempts: 1, Error: errstr,
		}
	}
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	c := filepath.Join(dir, "c.jsonl")
	writeShardJournal(t, a,
		pe("_209_db", 64, "ok", ""),
		pe("_213_javac", 64, "error", "zzz: node died"),
		NodeEvent{Event: "node", Node: "n0", State: "up", Detail: "env"},
	)
	writeShardJournal(t, b,
		pe("_209_db", 64, "error", "late shard lost it"), // the ok in shard a must win
		FaultEvent{Event: "fault", Figure: "fig7", Point: "_209_db/...", Error: "lost"},
		pe("_202_jess", 32, "ok", ""),
	)
	writeShardJournal(t, c,
		pe("_213_javac", 64, "error", "aaa: smallest error string wins the tie"),
		pe("_202_jess", 32, "ok", ""), // duplicate ok — must not double-count
	)
	d := filepath.Join(dir, "d.jsonl")
	writeShardJournal(t, d,
		legacyPointEvent{pe("_202_jess", 32, "ok", ""), "recorded"},
		legacyPointEvent{pe("_227_mtrt", 48, "ok", ""), "hit"}, // only here
	)

	perms := permutations([]string{a, b, c, d})
	var want string
	wantOK := 0
	for i, p := range perms {
		var buf bytes.Buffer
		n, mrep, err := MergeJournals(&buf, p...)
		if err != nil {
			t.Fatal(err)
		}
		if !mrep.Clean() {
			t.Fatalf("clean shard journals reported salvage drops: %s", mrep)
		}
		if i == 0 {
			want, wantOK = buf.String(), n
			continue
		}
		if buf.String() != want {
			t.Fatalf("permutation %v produced different merged bytes", p)
		}
		if n != wantOK {
			t.Fatalf("permutation %v resolved %d ok points, want %d", p, n, wantOK)
		}
	}
	if wantOK != 3 {
		t.Fatalf("merged ok count = %d, want 3", wantOK)
	}
	if strings.Contains(want, `"memo"`) {
		t.Fatal("merged journal kept a legacy memo tag")
	}

	evs, err := metrics.DecodeJournal[mergeEvent](strings.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("merged journal has %d lines, want 4 resolved points", len(evs))
	}
	outcomes := make(map[string]mergeEvent)
	for _, ev := range evs {
		if ev.Event != "" {
			t.Fatalf("non-point event %q leaked into merged journal", ev.Event)
		}
		outcomes[ev.Bench] = ev
	}
	if ev := outcomes["_209_db"]; ev.Outcome != "ok" {
		t.Fatalf("_209_db resolved %q, want the ok to win", ev.Outcome)
	}
	if ev := outcomes["_213_javac"]; ev.Outcome != "error" || !strings.HasPrefix(ev.Error, "aaa") {
		t.Fatalf("_213_javac resolved (%q, %q), want the lexicographically smallest error", ev.Outcome, ev.Error)
	}
}

// permutations returns every ordering of xs.
func permutations(xs []string) [][]string {
	if len(xs) <= 1 {
		return [][]string{append([]string(nil), xs...)}
	}
	var out [][]string
	for i, x := range xs {
		rest := append(append([]string(nil), xs[:i]...), xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{x}, p...))
		}
	}
	return out
}

// TestMergeResumeAcrossShards runs a campaign split across two shard
// journals sharing one disk cache — Figure 6 on one "coordinator", Figure 7
// on another — then resumes a combined run from the merged journal: the
// output matches a fresh single-process run byte-for-byte and nothing is
// recomputed. The Figure 7 shard's journal is rewritten with the "memo"
// tags of a memoized run first, and resuming from it alone must skip every
// point it records too.
func TestMergeResumeAcrossShards(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "points")
	runShard := func(jpath, fig string) string {
		var out strings.Builder
		r := quickRunner(&out)
		r.CacheDir = cacheDir
		j, err := metrics.OpenJournal(jpath)
		if err != nil {
			t.Fatal(err)
		}
		r.Journal = j
		if err := r.RunFigure(fig); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	ja := filepath.Join(dir, "shard-a.jsonl")
	jb := filepath.Join(dir, "shard-b.jsonl")
	runShard(ja, "fig6")
	fig7 := runShard(jb, "fig7")
	legacyOK := tagLegacyMemo(t, jb)

	var legacyOut strings.Builder
	lr := quickRunner(&legacyOut)
	lr.CacheDir = cacheDir
	lr.Metrics = metrics.NewRegistry()
	lrep, err := lr.LoadResume(jb)
	if err != nil {
		t.Fatal(err)
	}
	if !lrep.Salvage.Clean() || lrep.Completed != legacyOK {
		t.Fatalf("memo-tagged journal: resume saw %d points (salvage %s), want %d", lrep.Completed, lrep.Salvage, legacyOK)
	}
	if err := lr.RunFigure("fig7"); err != nil {
		t.Fatal(err)
	}
	if legacyOut.String() != fig7 {
		t.Fatal("resume from a memo-tagged journal changed Figure 7")
	}
	if skipped := lr.Metrics.Counter("experiments.resume.skipped").Value(); skipped != int64(legacyOK) {
		t.Fatalf("resume from a memo-tagged journal skipped %d points, want %d", skipped, legacyOK)
	}

	var merged bytes.Buffer
	n, _, err := MergeJournals(&merged, ja, jb)
	if err != nil {
		t.Fatal(err)
	}
	mergedPath := filepath.Join(dir, "merged.jsonl")
	if err := os.WriteFile(mergedPath, merged.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var ref strings.Builder
	rr := quickRunner(&ref)
	for _, fig := range []string{"fig6", "fig7"} {
		if err := rr.RunFigure(fig); err != nil {
			t.Fatal(err)
		}
	}

	var out strings.Builder
	r := quickRunner(&out)
	r.CacheDir = cacheDir
	r.Metrics = metrics.NewRegistry()
	rrep, err := r.LoadResume(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	if rrep.Completed != n {
		t.Fatalf("LoadResume saw %d points, merge resolved %d", rrep.Completed, n)
	}
	for _, fig := range []string{"fig6", "fig7"} {
		if err := r.RunFigure(fig); err != nil {
			t.Fatal(err)
		}
	}
	if out.String() != ref.String() {
		t.Fatal("resumed sharded campaign differs from the fresh single-process run")
	}
	if skipped := r.Metrics.Counter("experiments.resume.skipped").Value(); skipped != int64(n) {
		t.Fatalf("resume skipped %d points, merged journal resolved %d", skipped, n)
	}
	if misses := r.Metrics.Counter("experiments.diskcache.misses").Value(); misses != 0 {
		t.Fatalf("resumed run recomputed %d points", misses)
	}
}
