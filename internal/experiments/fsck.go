package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"jvmpower/internal/metrics"
)

// Offline integrity checking: `experiments -fsck` runs the same
// verification the live paths run — the cache envelope check loadPoint
// performs, the salvaging decode daemon recovery performs — over a whole
// cache directory and/or journal at rest, so an operator can audit a
// campaign's durable state without rerunning it. Corrupt cache entries are quarantined
// exactly as a live run would quarantine them; a corrupt journal is
// reported, and with repair=true rewritten to its salvaged records (the
// original kept as <path>.pre-fsck).

// FsckReport is the accounting of one offline integrity pass.
type FsckReport struct {
	// CacheScanned and CacheCorrupt count .point entries examined and
	// found invalid (and therefore quarantined).
	CacheScanned int
	CacheCorrupt int
	// JournalSalvage is the journal decode accounting; zero-valued when no
	// journal was checked.
	JournalSalvage metrics.SalvageReport
	// JournalRepaired reports that a corrupt journal was rewritten to its
	// salvaged records.
	JournalRepaired bool
}

// Corrupt reports whether the pass found any corruption — the condition
// under which cmd/experiments exits 4.
func (r FsckReport) Corrupt() bool {
	return r.CacheCorrupt > 0 || !r.JournalSalvage.Clean()
}

// Fsck verifies cacheDir's entries and/or journalPath's records, writing a
// human-readable account to w. Either path may be empty (that check is
// skipped). Corrupt cache entries are quarantined into the corrupt/
// sidecar; a corrupt journal is rewritten to its valid records only when
// repair is set. The returned error covers operational failures only —
// corruption is reported in the FsckReport, not as an error.
func Fsck(w io.Writer, cacheDir, journalPath string, repair bool) (FsckReport, error) {
	var rep FsckReport
	if cacheDir != "" {
		if err := fsckCache(w, cacheDir, &rep); err != nil {
			return rep, err
		}
	}
	if journalPath != "" {
		if err := fsckJournal(w, journalPath, repair, &rep); err != nil {
			return rep, err
		}
	}
	if !rep.Corrupt() {
		fmt.Fprintln(w, "fsck: clean")
	}
	return rep, nil
}

// fsckCache verifies every .point entry in dir: envelope intact, payload
// checksum valid, gob payload decodable. Invalid entries move to the
// corrupt/ sidecar — the same quarantine a live load performs, minus the
// recompute.
func fsckCache(w io.Writer, dir string, rep *FsckReport) error {
	entries, err := filepath.Glob(filepath.Join(dir, "*.point"))
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	sort.Strings(entries)
	for _, path := range entries {
		rep.CacheScanned++
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("fsck: %w", err)
		}
		_, cause := decodeCacheEntry(data)
		if cause == nil {
			continue
		}
		rep.CacheCorrupt++
		dst := filepath.Join(dir, corruptDirName, filepath.Base(path))
		disposition := "quarantined"
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil || os.Rename(path, dst) != nil {
			if rmErr := os.Remove(path); rmErr != nil {
				return fmt.Errorf("fsck: corrupt entry %s could neither be quarantined nor removed: %w", path, rmErr)
			}
			disposition = "removed"
		}
		fmt.Fprintf(w, "fsck: cache entry %s: %v (%s)\n", filepath.Base(path), cause, disposition)
	}
	fmt.Fprintf(w, "fsck: cache %s: %d entr%s scanned, %d corrupt\n",
		dir, rep.CacheScanned, plural(rep.CacheScanned, "y", "ies"), rep.CacheCorrupt)
	return nil
}

// fsckJournal salvage-decodes the journal and, when repair is set and the
// decode dropped records, rewrites the file to the salvaged prefix. The
// records pass through untyped (json.RawMessage): fsck must preserve
// event shapes it does not know about, including ones written by newer
// builds.
func fsckJournal(w io.Writer, path string, repair bool, rep *FsckReport) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	records, salvage, err := metrics.DecodeJournalSalvage[json.RawMessage](f)
	f.Close()
	if err != nil {
		return fmt.Errorf("fsck: reading %s: %w", path, err)
	}
	rep.JournalSalvage = salvage
	if salvage.Clean() {
		fmt.Fprintf(w, "fsck: journal %s: %d record(s), clean\n", path, salvage.Records)
		return nil
	}
	fmt.Fprintf(w, "fsck: journal %s: %s\n", path, salvage)
	if !repair {
		fmt.Fprintln(w, "fsck: re-run with -fsck-repair to rewrite the journal to its salvaged records")
		return nil
	}
	// Repair: back up the damaged original, then atomically replace it
	// with a re-encoded (and therefore re-checksummed) salvaged journal.
	backup := path + ".pre-fsck"
	orig, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if err := os.WriteFile(backup, orig, 0o644); err != nil {
		return fmt.Errorf("fsck: backing up journal: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.fsck")
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("fsck: rewriting journal: %w", err)
	}
	for _, rec := range records {
		line, err := metrics.EncodeRecord(rec)
		if err != nil {
			return fail(err)
		}
		if _, err := tmp.Write(line); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fsck: rewriting journal: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fsck: rewriting journal: %w", err)
	}
	rep.JournalRepaired = true
	fmt.Fprintf(w, "fsck: journal repaired: %d record(s) kept, original saved as %s\n", salvage.Records, backup)
	return nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
