package metrics

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

type testEvent struct {
	Name string  `json:"name"`
	N    int     `json:"n"`
	MS   float64 `json:"ms"`
}

// TestJournalRoundTrip writes events and decodes the JSONL back.
func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	want := []testEvent{
		{Name: "fig7/_213_javac", N: 1, MS: 74.25},
		{Name: "fig7/_209_db", N: 2, MS: 12.5},
	}
	for _, ev := range want {
		if err := j.Record(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJournal[testEvent](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestJournalFile exercises the file-backed path used by -journal.
func TestJournalFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(testEvent{Name: "a", N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := DecodeJournal[testEvent](f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("file journal decoded %+v", got)
	}
}

// TestJournalConcurrentRecords checks records from parallel workers stay
// line-atomic (every line decodes; none interleave).
func TestJournalConcurrentRecords(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	const goroutines, perG = 16, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := j.Record(testEvent{Name: "w", N: g*perG + i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJournal[testEvent](&buf)
	if err != nil {
		t.Fatalf("interleaved journal lines: %v", err)
	}
	if len(got) != goroutines*perG {
		t.Fatalf("decoded %d events, want %d", len(got), goroutines*perG)
	}
}

// journalBytes renders events through a Journal into raw bytes.
func journalBytes(t *testing.T, events ...testEvent) []byte {
	t.Helper()
	var buf bytes.Buffer
	j := NewJournal(&buf)
	for _, ev := range events {
		if err := j.Record(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// someEvents builds n distinct events.
func someEvents(n int) []testEvent {
	evs := make([]testEvent, n)
	for i := range evs {
		evs[i] = testEvent{Name: fmt.Sprintf("fig7/point-%03d", i), N: i, MS: float64(i) * 1.5}
	}
	return evs
}

// TestRecordCarriesVerifiableCRC checks every written line ends in the
// fixed-width envelope and survives the strict (verifying) reader.
func TestRecordCarriesVerifiableCRC(t *testing.T) {
	want := someEvents(3)
	data := journalBytes(t, want...)
	for i, line := range bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n")) {
		if !bytes.Contains(line, []byte(`"crc":"c1:`)) {
			t.Fatalf("line %d carries no checksum envelope: %s", i+1, line)
		}
	}
	got, err := DecodeJournal[testEvent](bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestStrictDecodeNamesLineNumber corrupts a mid-journal line and checks
// the strict reader's error carries its 1-based line number.
func TestStrictDecodeNamesLineNumber(t *testing.T) {
	data := journalBytes(t, someEvents(3)...)
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines[1] = []byte("{this is not json}\n")
	_, err := DecodeJournal[testEvent](bytes.NewReader(bytes.Join(lines, nil)))
	if err == nil {
		t.Fatal("strict decode accepted a garbage line")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error does not name line 2: %v", err)
	}
}

// TestLegacyJournalStillLoads feeds both readers a pre-envelope journal
// (plain JSONL, no crc field): versioning means old journals stay readable.
func TestLegacyJournalStillLoads(t *testing.T) {
	legacy := `{"name":"a","n":1,"ms":2}` + "\n" + `{"name":"b","n":2,"ms":4}` + "\n"
	strict, err := DecodeJournal[testEvent](strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	salvaged, rep, err := DecodeJournalSalvage[testEvent](strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) != 2 || len(salvaged) != 2 || !rep.Clean() {
		t.Fatalf("legacy journal: strict=%d salvaged=%d report=%+v", len(strict), len(salvaged), rep)
	}
	if strict[0].Name != "a" || salvaged[1].Name != "b" {
		t.Fatalf("legacy decode mangled events: %+v / %+v", strict, salvaged)
	}
}

// TestSalvageTruncationEveryOffset cuts a journal at every byte offset:
// the salvaging reader must recover exactly the records whose lines are
// complete before the cut, flag the torn tail, and never error.
func TestSalvageTruncationEveryOffset(t *testing.T) {
	want := someEvents(5)
	data := journalBytes(t, want...)
	// lineEnd[i] = offset just past record i's newline.
	var lineEnds []int
	for i, b := range data {
		if b == '\n' {
			lineEnds = append(lineEnds, i+1)
		}
	}
	for cut := 0; cut <= len(data); cut++ {
		// A line is recoverable when fully present — including when only
		// its trailing newline was cut off: the checksum, not the
		// separator, is what proves a record complete.
		complete := 0
		atBoundary := cut == 0
		for _, end := range lineEnds {
			if end <= cut || end == cut+1 {
				complete++
			}
			if end == cut || end == cut+1 {
				atBoundary = true
			}
		}
		got, rep, err := DecodeJournalSalvage[testEvent](bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != complete {
			t.Fatalf("cut %d: salvaged %d records, want %d", cut, len(got), complete)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, got[i], want[i])
			}
		}
		partial := !atBoundary
		if partial && !rep.TornTail {
			t.Fatalf("cut %d leaves a partial line but the report shows no torn tail: %+v", cut, rep)
		}
		if !partial && rep.TornTail {
			t.Fatalf("cut %d is clean but the report claims a torn tail: %+v", cut, rep)
		}
	}
}

// TestSalvageBitFlipEveryByte flips each byte of a journal in turn: every
// unflipped record must come back intact, and the flipped line must either
// be dropped or decode to its original content (a flip confined to the
// envelope leaves the payload untouched).
func TestSalvageBitFlipEveryByte(t *testing.T) {
	want := someEvents(4)
	data := journalBytes(t, want...)
	lineOf := make([]int, len(data)) // byte offset -> 0-based record index
	line := 0
	for i, b := range data {
		lineOf[i] = line
		if b == '\n' {
			line++
		}
	}
	for off := 0; off < len(data); off++ {
		if data[off] == '\n' {
			continue // flipping the separator merges lines; covered by the fuzz target
		}
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		got, rep, err := DecodeJournalSalvage[testEvent](bytes.NewReader(mut))
		if err != nil {
			t.Fatalf("flip at %d: %v", off, err)
		}
		victim := lineOf[off]
		rest := 0
		for i, ev := range want {
			if i == victim {
				continue
			}
			found := false
			for _, g := range got {
				if g == ev {
					found = true
					break
				}
			}
			if found {
				rest++
			}
		}
		if rest != len(want)-1 {
			t.Fatalf("flip at %d (record %d): only %d of %d unflipped records survived (report %+v)",
				off, victim, rest, len(want)-1, rep)
		}
		if len(got) > len(want) {
			t.Fatalf("flip at %d: salvage invented records: %d > %d", off, len(got), len(want))
		}
	}
}

// TestSyncPointDurableWithoutClose checks the default policy: after
// Record returns, the record is on disk even though the journal is never
// flushed or closed — the property a SIGKILL tests for real.
func TestSyncPointDurableWithoutClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := someEvents(3)
	for _, ev := range want {
		if err := j.Record(ev); err != nil {
			t.Fatal(err)
		}
	}
	// Deliberately no Close: read the file as a crashed process left it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := DecodeJournalSalvage[testEvent](bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || !rep.Clean() {
		t.Fatalf("SyncPoint journal not durable before Close: %d of %d records on disk (%+v)",
			len(got), len(want), rep)
	}
	_ = j.Close()
}

// TestSyncCloseBuffersUntilClose checks the legacy policy still buffers:
// nothing on disk before Close, everything after.
func TestSyncCloseBuffersUntilClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "buffered.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSync(SyncClose, 0)
	if err := j.Record(testEvent{Name: "a", N: 1}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("SyncClose journal reached disk before Close (size %d, err %v)", fi.Size(), err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJournal[testEvent](mustOpen(t, path))
	if err != nil || len(got) != 1 {
		t.Fatalf("after Close: %d records, err %v", len(got), err)
	}
}

// TestSyncIntervalSyncsOnDeadline checks the interval policy flushes once
// the interval has elapsed, without waiting for Close.
func TestSyncIntervalSyncsOnDeadline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "interval.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSync(SyncInterval, 10*time.Millisecond)
	if err := j.Record(testEvent{Name: "a", N: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := j.Record(testEvent{Name: "b", N: 2}); err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeJournalSalvage[testEvent](mustOpen(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 {
		t.Fatalf("interval policy left %d of 2 records unsynced past the deadline", len(got))
	}
	_ = j.Close()
}

// TestParseSyncPolicy pins the -journal-sync grammar.
func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in       string
		policy   SyncPolicy
		interval time.Duration
		wantErr  bool
	}{
		{"point", SyncPoint, 0, false},
		{"close", SyncClose, 0, false},
		{"interval", SyncInterval, time.Second, false},
		{"interval=2s", SyncInterval, 2 * time.Second, false},
		{"250ms", SyncInterval, 250 * time.Millisecond, false},
		{"interval=", 0, 0, true},
		{"interval=-1s", 0, 0, true},
		{"-3s", 0, 0, true},
		{"bogus", 0, 0, true},
	}
	for _, c := range cases {
		p, iv, err := ParseSyncPolicy(c.in)
		if (err != nil) != c.wantErr {
			t.Fatalf("ParseSyncPolicy(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
		}
		if err == nil && (p != c.policy || iv != c.interval) {
			t.Fatalf("ParseSyncPolicy(%q) = (%v, %v), want (%v, %v)", c.in, p, iv, c.policy, c.interval)
		}
	}
}

// TestParseCrashDirective pins the JVMPOWER_CRASH_JOURNAL grammar.
func TestParseCrashDirective(t *testing.T) {
	if n, mid, err := ParseCrashDirective("after=3"); err != nil || n != 3 || mid {
		t.Fatalf("after=3 -> (%d,%v,%v)", n, mid, err)
	}
	if n, mid, err := ParseCrashDirective("mid=2"); err != nil || n != 2 || !mid {
		t.Fatalf("mid=2 -> (%d,%v,%v)", n, mid, err)
	}
	for _, bad := range []string{"", "after=0", "mid=-1", "after=x", "kill=1"} {
		if _, _, err := ParseCrashDirective(bad); err == nil {
			t.Fatalf("ParseCrashDirective(%q) accepted", bad)
		}
	}
}

// TestSalvageGarbageAndDuplicates mixes valid records with garbage lines
// and a duplicated record: salvage keeps the valid ones (duplicates and
// all — dedupe is the consumer's job) and reports the dropped lines.
func TestSalvageGarbageAndDuplicates(t *testing.T) {
	valid := journalBytes(t, someEvents(2)...)
	lines := bytes.SplitAfter(valid, []byte("\n"))
	var mixed bytes.Buffer
	mixed.Write(lines[0])
	mixed.WriteString("complete garbage, not even json\n")
	mixed.Write(lines[1])
	mixed.Write(lines[1]) // duplicated record
	mixed.WriteString("{\"half\":\"torn")
	got, rep, err := DecodeJournalSalvage[testEvent](&mixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("salvaged %d records, want 3 (two valid + one duplicate)", len(got))
	}
	if rep.Dropped != 2 || !rep.TornTail {
		t.Fatalf("report %+v, want 2 dropped with a torn tail", rep)
	}
	if len(rep.DroppedLines) != 2 || rep.DroppedLines[0] != 2 || rep.DroppedLines[1] != 5 {
		t.Fatalf("dropped lines %v, want [2 5]", rep.DroppedLines)
	}
	if rep.Clean() || !strings.Contains(rep.String(), "torn tail") {
		t.Fatalf("report renders badly: %q", rep.String())
	}
}

// TestSalvageRandomCorruption is the randomized sibling of the exhaustive
// tests above: random cuts and random multi-byte flips (deterministic
// seed) must never error, never invent records, and always keep every
// untouched record.
func TestSalvageRandomCorruption(t *testing.T) {
	want := someEvents(8)
	data := journalBytes(t, want...)
	rng := rand.New(rand.NewSource(0x5EED))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), data...)
		mut = mut[:rng.Intn(len(mut)+1)]
		for flips := rng.Intn(3); flips > 0 && len(mut) > 0; flips-- {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		got, _, err := DecodeJournalSalvage[testEvent](bytes.NewReader(mut))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) > len(want) {
			t.Fatalf("trial %d: salvage invented records (%d > %d)", trial, len(got), len(want))
		}
	}
}

// TestAppendAfterTornTail: a journal whose last life died mid-record is
// reopened for append. The torn line must stay one dropped line, not
// swallow the first record of the new life.
func TestAppendAfterTornTail(t *testing.T) {
	evs := someEvents(4)
	first := journalBytes(t, evs[0])
	second := journalBytes(t, evs[1])
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	torn := append(append([]byte(nil), first...), second[:len(second)/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournalAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs[2:] {
		if err := j.Record(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, rep, err := DecodeJournalSalvage[testEvent](mustOpen(t, path))
	if err != nil {
		t.Fatal(err)
	}
	want := []testEvent{evs[0], evs[2], evs[3]}
	if !slices.Equal(got, want) {
		t.Fatalf("salvaged %+v, want %+v", got, want)
	}
	if rep.Dropped != 1 || rep.TornTail {
		t.Fatalf("report %+v, want one dropped line and no torn tail", rep)
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestJournalConcurrentCampaignWriters is the daemon's journal contract:
// many writers — two concurrent campaigns' worth of job and point
// records — appending to one *file-backed* journal under the race
// detector interleave whole records only. The proof is the salvaging
// decoder: every line decodes, zero are dropped, no torn tail.
func TestJournalConcurrentCampaignWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Fsync-per-record (the daemon default) would dominate the test's
	// runtime; interval sync exercises the same locking.
	j.SetSync(SyncInterval, 10*time.Millisecond)
	const campaigns, perC = 2, 250
	var wg sync.WaitGroup
	for c := 0; c < campaigns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				ev := testEvent{Name: fmt.Sprintf("campaign-%d", c), N: c*perC + i, MS: float64(i)}
				if err := j.Record(ev); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, rep, err := DecodeJournalSalvage[testEvent](f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 0 || rep.TornTail {
		t.Fatalf("salvage dropped %d line(s), torn tail %v; want pristine", rep.Dropped, rep.TornTail)
	}
	if len(got) != campaigns*perC {
		t.Fatalf("decoded %d records, want %d", len(got), campaigns*perC)
	}
	// Per-campaign totals confirm no record was lost or duplicated, not
	// just that the count matches.
	seen := make(map[int]bool, len(got))
	for _, ev := range got {
		if seen[ev.N] {
			t.Fatalf("record N=%d appears twice", ev.N)
		}
		seen[ev.N] = true
	}
}
