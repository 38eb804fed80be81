package metrics

import (
	"bytes"
	"testing"
)

// FuzzJournalDecode hammers the salvaging journal reader with arbitrary
// bytes: crash-truncated tails, bit-flipped envelopes, spliced garbage,
// whatever the mutator invents. The reader is the crash-recovery path —
// daemon job recovery and -fsck are built on it — so it must never panic,
// never error on in-memory input, and hold its accounting invariants; and
// re-encoding whatever it salvaged must produce a journal that salvages
// clean (a repaired journal cannot need repairing again).
func FuzzJournalDecode(f *testing.F) {
	valid := func(events ...testEvent) []byte {
		var buf bytes.Buffer
		j := NewJournal(&buf)
		for _, ev := range events {
			if err := j.Record(ev); err != nil {
				f.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	intact := valid(
		testEvent{Name: "fig7/_213_javac/GenMS/64MB", N: 1, MS: 74.25},
		testEvent{Name: "fig7/_209_db/GenMS/64MB", N: 2, MS: 12.5},
	)
	f.Add(intact)
	f.Add(intact[:len(intact)-9])                                               // torn tail
	f.Add([]byte(`{"name":"legacy","n":3,"ms":1}` + "\n"))                      // pre-envelope line
	f.Add(append([]byte("not json at all\n"), intact...))                       // garbage prefix
	f.Add(bytes.Replace(intact, []byte(`"crc":"c1:`), []byte(`"crc":"c9:`), 1)) // future envelope version
	f.Add([]byte("\n\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, rep, err := DecodeJournalSalvage[map[string]any](bytes.NewReader(data))
		if err != nil {
			t.Fatalf("salvage errored on in-memory input: %v", err)
		}
		if rep.Records != len(events) {
			t.Fatalf("report says %d records, decoded %d", rep.Records, len(events))
		}
		if rep.Records+rep.Dropped != rep.Lines {
			t.Fatalf("accounting broken: %d records + %d dropped != %d lines", rep.Records, rep.Dropped, rep.Lines)
		}
		if rep.Dropped == 0 && rep.TornTail {
			t.Fatalf("torn tail reported with nothing dropped: %+v", rep)
		}

		// Round trip: re-encode the salvaged records and salvage again —
		// the rewrite must be clean and lose nothing.
		var out bytes.Buffer
		for _, ev := range events {
			line, err := EncodeRecord(ev)
			if err != nil {
				t.Fatalf("re-encoding a salvaged record: %v", err)
			}
			out.Write(line)
		}
		again, rep2, err := DecodeJournalSalvage[map[string]any](bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(events) || !rep2.Clean() {
			t.Fatalf("re-encoded journal salvages to %d of %d records (report %+v)", len(again), len(events), rep2)
		}
	})
}
