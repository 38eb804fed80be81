package metrics

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Journal is an append-only JSONL event log: one JSON object per line, in
// record order. The experiments dispatcher journals one event per
// characterization point (key, outcome, duration, cache source), so a
// stalled or failed `-all` run shows exactly which of the hundreds of
// points is responsible — and, since the daemon's job log is a journal, a
// crashed daemon recovers its jobs from it.
//
// Because recovery depends on it, the journal is a write-ahead log, not a
// best-effort trace:
//
//   - every record carries a trailing CRC32C envelope (see EncodeRecord),
//     so a torn or bit-flipped line is detectable instead of silently
//     wrong; journals written before the envelope existed still load;
//   - durability is a policy (SyncPoint fsyncs after every record —
//     group commit at record granularity — SyncInterval amortizes,
//     SyncClose restores the pre-WAL buffer-until-Close behavior);
//   - readers come in two flavors: DecodeJournal (strict — any bad line
//     is an error naming its line number) and DecodeJournalSalvage
//     (drops bad lines and torn tails, reports what it dropped, returns
//     every valid record — the reader daemon recovery and fsck are built
//     on).
//
// Records are mutex-serialized. A nil *Journal is a valid no-op, mirroring
// the registry's nil-safety.
type Journal struct {
	mu       sync.Mutex
	buf      *bufio.Writer
	c        io.Closer
	f        *os.File // non-nil when file-backed: the Sync target
	err      error
	policy   SyncPolicy
	interval time.Duration
	lastSync time.Time
	records  int

	// Crash-torture hooks (see SetCrashPoint): SIGKILL the process at a
	// deterministic journal offset, for the kill-anywhere recovery gate.
	crashAfter int
	crashMid   bool
}

// SyncPolicy selects when a journal's buffered records reach the disk.
type SyncPolicy int

const (
	// SyncPoint flushes and fsyncs after every Record — group commit at
	// record granularity. A SIGKILL at any instant loses at most the
	// record being written, and the salvaging reader recovers everything
	// before it. The default: the journal is the durable completion
	// record, and BENCH_8.json prices what that costs.
	SyncPoint SyncPolicy = iota
	// SyncInterval flushes and fsyncs when Interval has elapsed since the
	// last sync, checked at each Record (no background goroutine, so a
	// journal never outlives its records' determinism). A crash loses at
	// most the last interval's records.
	SyncInterval
	// SyncClose buffers everything until Close, the pre-WAL behavior: the
	// cheapest policy and the one a SIGKILL hurts most.
	SyncClose
)

// ParseSyncPolicy parses a -journal-sync value: "point", "close", or an
// interval — "interval" (a 1s default) or any Go duration like "500ms".
func ParseSyncPolicy(s string) (SyncPolicy, time.Duration, error) {
	switch s {
	case "point":
		return SyncPoint, 0, nil
	case "close":
		return SyncClose, 0, nil
	case "interval":
		return SyncInterval, time.Second, nil
	}
	if rest, ok := strings.CutPrefix(s, "interval="); ok {
		d, err := time.ParseDuration(rest)
		if err != nil || d <= 0 {
			return 0, 0, fmt.Errorf("metrics: journal sync interval %q must be a positive duration", rest)
		}
		return SyncInterval, d, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		if d <= 0 {
			return 0, 0, fmt.Errorf("metrics: journal sync interval %q must be positive", s)
		}
		return SyncInterval, d, nil
	}
	return 0, 0, fmt.Errorf("metrics: unknown journal sync policy %q (point, close, interval, or a duration)", s)
}

// NewJournal returns a journal writing JSONL to w. If w is also an
// io.Closer, Close closes it after flushing. The default sync policy is
// SyncPoint; for non-file writers a sync is just a buffer flush.
func NewJournal(w io.Writer) *Journal {
	j := &Journal{buf: bufio.NewWriter(w), policy: SyncPoint}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	if f, ok := w.(*os.File); ok {
		j.f = f
	}
	return j
}

// OpenJournal creates (truncating) a journal file at path.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewJournal(f), nil
}

// OpenJournalAppend opens (creating if needed) a journal file at path and
// appends to it — the daemon's job log, where the prior life's events
// must survive as the record of which jobs recovery requeues. A prior
// life killed mid-record leaves a torn last line; it is ended first, so
// the torn bytes stay one dropped line instead of swallowing the first
// new record.
func OpenJournalAppend(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := endLastLine(f); err != nil {
		f.Close()
		return nil, err
	}
	return NewJournal(f), nil
}

// endLastLine appends a newline to a non-empty file that does not end in
// one.
func endLastLine(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] != '\n' {
		_, err = f.Write([]byte{'\n'})
	}
	return err
}

// SetSync sets the journal's durability policy. interval is used only by
// SyncInterval (0 means 1s). Nil-safe.
func (j *Journal) SetSync(p SyncPolicy, interval time.Duration) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.policy = p
	if interval <= 0 {
		interval = time.Second
	}
	j.interval = interval
	j.lastSync = time.Now()
}

// SetCrashPoint arms the crash-torture hook: the process SIGKILLs itself
// while writing the nth record (1-based). With mid false the full record is
// flushed and fsynced first, so a well-synced journal must recover exactly
// n records; with mid true only the first half of the record's bytes are
// forced to disk, manufacturing the torn tail the salvaging reader exists
// for. Only the kill-anywhere gate and scripts/crash_torture.sh arm this
// (via the JVMPOWER_CRASH_JOURNAL directive); it is never set in normal
// operation. Nil-safe.
func (j *Journal) SetCrashPoint(n int, mid bool) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.crashAfter = n
	j.crashMid = mid
}

// ParseCrashDirective parses a JVMPOWER_CRASH_JOURNAL value: "after=N"
// (SIGKILL once record N is durable) or "mid=N" (SIGKILL with record N
// half-written — a torn tail).
func ParseCrashDirective(s string) (n int, mid bool, err error) {
	key, val, ok := strings.Cut(s, "=")
	if ok {
		switch key {
		case "after", "mid":
			n, err := strconv.Atoi(val)
			if err == nil && n >= 1 {
				return n, key == "mid", nil
			}
		}
	}
	return 0, false, fmt.Errorf("metrics: crash directive %q is not after=N or mid=N (N >= 1)", s)
}

// Record appends one event as a checksummed JSON line and applies the sync
// policy. The first write or encode error sticks and is returned by Close
// (and every subsequent Record).
func (j *Journal) Record(event any) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	line, err := EncodeRecord(event)
	if err != nil {
		j.err = err
		return j.err
	}
	j.records++
	if j.crashAfter > 0 && j.records == j.crashAfter && j.crashMid {
		// Torn-tail injection: force exactly half the record to disk,
		// then die. The bytes must be fsynced — a SIGKILL would otherwise
		// discard the user-space buffer and leave a clean (just short)
		// journal, which is the less interesting crash.
		_, _ = j.buf.Write(line[:len(line)/2])
		_ = j.buf.Flush()
		if j.f != nil {
			_ = j.f.Sync()
		}
		sigkillSelf()
	}
	if _, err := j.buf.Write(line); err != nil {
		j.err = err
		return j.err
	}
	j.maybeSync()
	if j.crashAfter > 0 && j.records == j.crashAfter {
		// Post-record injection: the record went through the configured
		// sync policy and nothing else. Under SyncPoint it is durable and
		// the salvaging reader recovers it; under SyncClose it is buffered
		// and the SIGKILL eats it — the difference the recovery gate
		// measures.
		sigkillSelf()
	}
	return j.err
}

// maybeSync applies the sync policy after a record write. Caller holds mu.
func (j *Journal) maybeSync() {
	switch j.policy {
	case SyncPoint:
		j.syncLocked()
	case SyncInterval:
		if time.Since(j.lastSync) >= j.interval {
			j.syncLocked()
		}
	}
}

func (j *Journal) syncLocked() {
	if err := j.buf.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	if j.f != nil {
		if err := j.f.Sync(); err != nil && j.err == nil {
			j.err = err
		}
	}
	j.lastSync = time.Now()
}

// sigkillSelf delivers the crash-torture kill: the exact signature of
// kill -9, which no deferred flush can intercept. The loop is unreachable
// but keeps the compiler honest about not returning.
func sigkillSelf() {
	_ = syscall.Kill(syscall.Getpid(), syscall.SIGKILL)
	for {
		time.Sleep(time.Hour)
	}
}

// Close flushes buffered events and closes the underlying file, returning
// the first error seen over the journal's lifetime. File-backed journals are
// fsynced before close: the journal is a durable record, and a flush that
// only reached the page cache protects against nothing a crash would do.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.buf.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	if j.f != nil {
		if err := j.f.Sync(); err != nil && j.err == nil {
			j.err = err
		}
	}
	if j.c != nil {
		if err := j.c.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.c = nil
		j.f = nil
	}
	return j.err
}

// The record envelope. Every line a Journal writes ends with a trailing
// checksum field spliced into the event's own JSON object:
//
//	{"bench":"_213_javac",...,"outcome":"ok","crc":"c1:9a4f00d2"}
//
// The CRC32C (Castagnoli — hardware-accelerated and the WAL-standard
// polynomial) covers the object exactly as json.Marshal produced it,
// before the envelope field was spliced in, so a reader verifies by
// stripping the envelope, restoring the closing brace, and re-hashing.
// The "c1:" prefix versions the envelope; a future "c2:" line would fail
// the exact-format match below and fall back to being parsed as a plain
// record (the field is just a string), so old readers degrade soft.
// Lines with no envelope at all are pre-WAL journals and stay loadable.

// journalCRCPrefix is the envelope's version tag.
const journalCRCPrefix = "c1:"

// castagnoli is the CRC32C table every envelope uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcEnvelope renders the trailing envelope for a payload checksum.
func crcEnvelope(crc uint32) string {
	return fmt.Sprintf(`"crc":"%s%08x"`, journalCRCPrefix, crc)
}

// EncodeRecord marshals one event as a checksummed JSONL line (with the
// trailing newline). Events that do not marshal to a JSON object — there
// are none in this repository, but the encoder is generic — are written
// unchecksummed, exactly as a pre-envelope journal would have.
func EncodeRecord(event any) ([]byte, error) {
	data, err := json.Marshal(event)
	if err != nil {
		return nil, err
	}
	if len(data) < 2 || data[0] != '{' || data[len(data)-1] != '}' {
		return append(data, '\n'), nil
	}
	crc := crc32.Checksum(data, castagnoli)
	line := make([]byte, 0, len(data)+len(journalCRCPrefix)+20)
	line = append(line, data[:len(data)-1]...)
	if !bytes.Equal(data, []byte("{}")) {
		line = append(line, ',')
	}
	line = append(line, crcEnvelope(crc)...)
	line = append(line, '}', '\n')
	return line, nil
}

// errCRCMismatch reports a line whose envelope did not match its payload.
var errCRCMismatch = errors.New("metrics: journal record checksum mismatch")

// envelopeSuffixLen is the byte length of `"crc":"c1:xxxxxxxx"}` — the
// envelope is fixed-width, so detection is an exact suffix match rather
// than a JSON parse (a corrupt line must be detectable without trusting
// its JSON to parse).
var envelopeSuffixLen = len(crcEnvelope(0)) + 1

// verifyRecord checks one journal line (newline already trimmed) and
// returns the payload to unmarshal: the line itself for pre-envelope
// (legacy) records, or the envelope-stripped object — with the checksum
// verified — for checksummed ones.
func verifyRecord(line []byte) ([]byte, error) {
	n := len(line)
	if n < envelopeSuffixLen+1 || line[n-1] != '}' {
		return line, nil // too short for an envelope: legacy line
	}
	suffix := line[n-envelopeSuffixLen:]
	marker := []byte(`"crc":"` + journalCRCPrefix)
	if !bytes.HasPrefix(suffix, marker) || suffix[len(suffix)-2] != '"' {
		return line, nil // no envelope in the fixed position: legacy line
	}
	hexDigits := suffix[len(marker) : len(suffix)-2]
	crcBytes := make([]byte, 4)
	if _, err := hex.Decode(crcBytes, hexDigits); err != nil {
		return nil, fmt.Errorf("%w (unparseable checksum %q)", errCRCMismatch, hexDigits)
	}
	want := uint32(crcBytes[0])<<24 | uint32(crcBytes[1])<<16 | uint32(crcBytes[2])<<8 | uint32(crcBytes[3])
	payload := line[:n-envelopeSuffixLen]
	// Strip the comma that joined the envelope to the last real field;
	// an empty object carries no comma.
	if len(payload) > 0 && payload[len(payload)-1] == ',' {
		payload = payload[:len(payload)-1]
	}
	restored := make([]byte, 0, len(payload)+1)
	restored = append(restored, payload...)
	restored = append(restored, '}')
	if got := crc32.Checksum(restored, castagnoli); got != want {
		return nil, fmt.Errorf("%w (have %08x, line claims %08x)", errCRCMismatch, got, want)
	}
	return restored, nil
}

// DecodeJournal reads every JSONL event from r into a slice of the event
// type — the strict reader for tests and offline analysis: any torn,
// corrupt, or unparseable line is an error naming its 1-based line number.
// Checksummed lines are verified; pre-envelope lines are accepted as-is.
func DecodeJournal[T any](r io.Reader) ([]T, error) {
	var events []T
	br := bufio.NewReader(r)
	for lineNo := 1; ; lineNo++ {
		line, rerr := br.ReadBytes('\n')
		line = bytes.TrimRight(line, "\n")
		if len(bytes.TrimSpace(line)) > 0 {
			payload, err := verifyRecord(line)
			if err != nil {
				return events, fmt.Errorf("metrics: journal line %d: %w", lineNo, err)
			}
			var ev T
			if err := json.Unmarshal(payload, &ev); err != nil {
				return events, fmt.Errorf("metrics: journal line %d: %w", lineNo, err)
			}
			events = append(events, ev)
		}
		if rerr == io.EOF {
			return events, nil
		}
		if rerr != nil {
			return events, rerr
		}
	}
}

// SalvageReport describes what DecodeJournalSalvage recovered and what it
// had to drop.
type SalvageReport struct {
	// Lines counts physical non-blank lines seen, including dropped ones.
	Lines int
	// Records counts lines decoded into valid events.
	Records int
	// Dropped counts lines discarded: checksum mismatches, unparseable
	// JSON, or the torn tail.
	Dropped int
	// TornTail reports that the final line was incomplete or corrupt —
	// the signature of a crash mid-write — and was truncated away.
	TornTail bool
	// DroppedLines lists the 1-based line numbers dropped (capped at
	// maxDroppedLines for reporting; Dropped is the true count).
	DroppedLines []int
}

// maxDroppedLines bounds the per-line detail a salvage report carries.
const maxDroppedLines = 16

// Clean reports whether nothing was dropped.
func (s SalvageReport) Clean() bool { return s.Dropped == 0 }

// String renders the report for operators: what survived, what did not.
func (s SalvageReport) String() string {
	if s.Clean() {
		return fmt.Sprintf("journal intact: %d record(s)", s.Records)
	}
	detail := ""
	if len(s.DroppedLines) > 0 {
		nums := make([]string, len(s.DroppedLines))
		for i, n := range s.DroppedLines {
			nums[i] = strconv.Itoa(n)
		}
		detail = " (line " + strings.Join(nums, ", ")
		if s.Dropped > len(s.DroppedLines) {
			detail += ", ..."
		}
		detail += ")"
	}
	tail := ""
	if s.TornTail {
		tail = ", torn tail truncated"
	}
	return fmt.Sprintf("journal salvaged: %d of %d line(s) valid, %d dropped%s%s",
		s.Records, s.Lines, s.Dropped, detail, tail)
}

// DecodeJournalSalvage reads every decodable JSONL event from r, dropping
// — not failing on — lines that are torn, checksum-corrupt, or otherwise
// unparseable. This is the crash-recovery reader: a journal whose writer
// was SIGKILLed mid-record salvages to exactly the records that were
// durable, and a bit-flipped line costs that one record, never the file.
// The only error returned is a genuine read error from r itself.
func DecodeJournalSalvage[T any](r io.Reader) ([]T, SalvageReport, error) {
	var events []T
	var rep SalvageReport
	br := bufio.NewReader(r)
	for lineNo := 1; ; lineNo++ {
		line, rerr := br.ReadBytes('\n')
		torn := rerr == io.EOF && len(line) > 0 // no trailing newline
		line = bytes.TrimRight(line, "\n")
		if len(bytes.TrimSpace(line)) > 0 {
			rep.Lines++
			ev, ok := decodeSalvageLine[T](line)
			if ok {
				events = append(events, ev)
				rep.Records++
			} else {
				rep.Dropped++
				if len(rep.DroppedLines) < maxDroppedLines {
					rep.DroppedLines = append(rep.DroppedLines, lineNo)
				}
				if torn || rerr == io.EOF {
					rep.TornTail = true
				}
			}
		}
		if rerr == io.EOF {
			return events, rep, nil
		}
		if rerr != nil {
			return events, rep, rerr
		}
	}
}

// decodeSalvageLine verifies and unmarshals one line, reporting failure
// instead of an error. A checksummed line whose envelope verifies but whose
// payload does not unmarshal is still dropped — salvage never fails.
func decodeSalvageLine[T any](line []byte) (T, bool) {
	var ev T
	payload, err := verifyRecord(line)
	if err != nil {
		return ev, false
	}
	if err := json.Unmarshal(payload, &ev); err != nil {
		return ev, false
	}
	return ev, true
}
