package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"jvmpower/internal/core"
)

// On-disk point cache. Each completed characterization point is persisted
// under CacheDir as one file named by a hash of everything that determines
// the result: the point identity, the run seed, the quick flag, and a
// format version. Reruns of `cmd/experiments -all` with a warm cache
// recompute only points whose key changed.
//
// Entries are self-verifying: the gob payload travels inside an envelope
// of magic, format version, and a CRC32C of the payload, so a truncated,
// bit-flipped, or foreign file can never be silently decoded into wrong
// figure data. An entry that fails any of those checks is quarantined —
// moved into the CacheDir/corrupt/ sidecar, counted on the
// experiments.diskcache.corrupt metric, journaled — and the point is
// recomputed, so corruption costs one recompute and leaves evidence,
// never a wrong number. `experiments -fsck` runs the same verification
// offline over a whole cache directory.

// diskCacheVersion invalidates all persisted entries when the cached
// format — or the simulation's observable output — changes. Bump it in any
// change that moves figure numbers. v3: entries grew the self-verifying
// envelope. v4: the key hashes the whole PointID. v5: collectors price
// each GC phase once from its counted volumes, which moves a phase's
// locality and MLP, and so a cached Outcome's floats, in their last bits;
// figure text is unchanged.
const diskCacheVersion = 5

// Envelope layout: magic (4) | format version (1) | payload CRC32C,
// big-endian (4) | gob payload.
var cacheMagic = []byte("JVPC")

const (
	cacheEnvelopeVersion = 1
	cacheHeaderLen       = 4 + 1 + 4
)

// corruptDirName is the quarantine sidecar under CacheDir: corrupt entries
// are moved, not deleted, so a corruption event stays inspectable.
const corruptDirName = "corrupt"

// diskKey names the cache file for a point under the current runner
// settings. It hashes the Go syntax of the whole PointID (%#v, which names
// and quotes every field and bypasses String), so no identity field can be
// left out. The fault plan's canonical spec is part of the key: a fault
// campaign's perturbed results must never be served to a clean run.
func (r *Runner) diskKey(id PointID) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("v%d|%#v|seed=%d|quick=%t|faults=%s",
		diskCacheVersion, id, r.Seed, r.Quick, r.Faults.String())))
	return fmt.Sprintf("%x.point", h[:12])
}

// sealCacheEntry wraps a gob payload in the self-verifying envelope.
func sealCacheEntry(payload []byte) []byte {
	out := make([]byte, 0, cacheHeaderLen+len(payload))
	out = append(out, cacheMagic...)
	out = append(out, cacheEnvelopeVersion)
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(payload, castagnoliCache))
	return append(out, payload...)
}

// castagnoliCache is the cache envelope's CRC32C table (the same
// polynomial the journal envelope uses).
var castagnoliCache = crc32.MakeTable(crc32.Castagnoli)

// openCacheEntry verifies an entry's envelope and returns the gob payload.
func openCacheEntry(data []byte) ([]byte, error) {
	if len(data) < cacheHeaderLen {
		return nil, fmt.Errorf("entry too short for envelope (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:4], cacheMagic) {
		return nil, fmt.Errorf("bad magic %q (not a sealed cache entry)", data[:4])
	}
	if v := data[4]; v != cacheEnvelopeVersion {
		return nil, fmt.Errorf("unknown envelope version %d", v)
	}
	want := binary.BigEndian.Uint32(data[5:9])
	payload := data[cacheHeaderLen:]
	if got := crc32.Checksum(payload, castagnoliCache); got != want {
		return nil, fmt.Errorf("payload checksum mismatch (have %08x, entry claims %08x)", got, want)
	}
	return payload, nil
}

// decodeCacheEntry verifies an entry's envelope and decodes its payload:
// the one validity check live loads and fsck share.
func decodeCacheEntry(data []byte) (core.Outcome, error) {
	var out core.Outcome
	payload, err := openCacheEntry(data)
	if err != nil {
		return out, err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&out); err != nil {
		return out, fmt.Errorf("gob payload: %w", err)
	}
	return out, nil
}

// loadPoint returns the persisted result for k, if the disk cache is
// enabled and holds a verifiably intact entry. Only the Outcome is
// persisted, so the result's Meter is nil; every figure reached through
// Run consumes only the Outcome. A corrupt entry is quarantined and
// reported as a miss — the caller recomputes, so a flipped bit costs one
// characterization, never a wrong figure.
func (r *Runner) loadPoint(k PointID) (*core.Result, bool) {
	if r.CacheDir == "" {
		return nil, false
	}
	path := filepath.Join(r.CacheDir, r.diskKey(k))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	out, err := decodeCacheEntry(data)
	if err != nil {
		r.quarantine(path, err)
		return nil, false
	}
	return &core.Result{Outcome: out}, true
}

// quarantine moves a corrupt cache entry into the sidecar dir (falling
// back to deletion if the move fails — a corrupt entry must never be
// served twice), bumps the corruption metric, and journals the event.
func (r *Runner) quarantine(path string, cause error) {
	dst := filepath.Join(filepath.Dir(path), corruptDirName, filepath.Base(path))
	moved := "quarantined"
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil || os.Rename(path, dst) != nil {
		_ = os.Remove(path)
		moved = "removed"
	}
	r.Metrics.Counter("experiments.diskcache.corrupt").Inc()
	if r.Journal != nil {
		_ = r.Journal.Record(CacheEvent{
			Event: "cache", Kind: "corrupt_" + moved,
			File: filepath.Base(path), Error: cause.Error(),
		})
	}
}

// CacheEvent is the journal record of a disk-cache anomaly: a quarantined
// corrupt entry or a write failure. Distinguished from PointEvents by the
// event field ("cache"), like every non-point record.
type CacheEvent struct {
	Event string `json:"event"` // "cache"
	Kind  string `json:"kind"`  // "corrupt_quarantined", "corrupt_removed", "write_error"
	File  string `json:"file,omitempty"`
	Error string `json:"error"`
}

// storePoint persists a completed point. The disk cache is an accelerator,
// never a correctness dependency, so failures do not fail the point — but
// they are no longer silent either: each one bumps
// experiments.diskcache.write_errors and the first journals a warning, so
// a full disk reads as a failing cache instead of a permanently cold one.
func (r *Runner) storePoint(k PointID, res *core.Result) {
	if r.CacheDir == "" {
		return
	}
	if err := r.storePointFile(k, res); err != nil {
		r.Metrics.Counter("experiments.diskcache.write_errors").Inc()
		r.cacheWarnOnce.Do(func() {
			if r.Journal != nil {
				_ = r.Journal.Record(CacheEvent{
					Event: "cache", Kind: "write_error",
					File:  r.diskKey(k),
					Error: fmt.Sprintf("%v (first of possibly many; see experiments.diskcache.write_errors)", err),
				})
			}
		})
	}
}

// storePointFile does the write: seal the gob of the result's Outcome in
// the envelope, fsync a unique temp file, rename into place. The unique
// temp file means concurrent writers of the same key — singleflight bounds
// those to one per process, but nothing stops two `experiments -cache DIR`
// processes sharing a cache directory — cannot interleave into each
// other's bytes, and the fsync+rename means a crash leaves either the old
// entry or the complete new one, never a torn file (and if the disk lies,
// the envelope checksum catches it on load).
func (r *Runner) storePointFile(k PointID, res *core.Result) error {
	if err := os.MkdirAll(r.CacheDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.CacheDir, r.diskKey(k))
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&res.Outcome); err != nil {
		return err
	}
	f, err := os.CreateTemp(r.CacheDir, r.diskKey(k)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(sealCacheEntry(payload.Bytes())); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
