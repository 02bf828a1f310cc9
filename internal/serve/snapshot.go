package serve

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/stats"
	"repro/internal/tuner"
)

// SnapshotVersion is the warm-state snapshot schema generation. A file
// written under any other version is rejected deterministically: the loader
// never guesses at a foreign schema, it falls back to a cold start.
const SnapshotVersion = 1

// snapshotMagic is the file-format discriminator, so a snapshot path pointed
// at an arbitrary JSON file fails loudly as "not a snapshot" rather than as
// a confusing schema mismatch.
const snapshotMagic = "repro-warm-state"

// Snapshot is the portable warm state of a Service: everything a restarted
// replica needs to answer byte-identically to its pre-restart self without
// re-running the offline stage (bandwidth sampling) or any tune — the tuned
// shape-cache entries per primitive, in LRU order, plus the sampled offline
// bandwidth curves that both the predictor and the engine's analytic backend
// evaluate against. The platform/config header binds the state to the
// deployment that produced it: tuned partitions are only valid for the
// platform, GPU count, and search budget they were tuned under.
type Snapshot struct {
	Version        int         `json:"version"`
	Platform       hw.Platform `json:"platform"`
	NGPUs          int         `json:"ngpus"`
	CandidateLimit int         `json:"candidate_limit"`
	// Primitives holds one block per tuner the service has materialized,
	// sorted by primitive name so snapshots of identical state are
	// byte-identical.
	Primitives []SnapshotPrim `json:"primitives"`
}

// SnapshotPrim is one primitive's warm state: the offline bandwidth curve
// and the tuned entries, least recently used first (replaying them in order
// reproduces the LRU recency exactly).
type SnapshotPrim struct {
	Prim    string          `json:"prim"`
	Curve   []stats.Point   `json:"curve"`
	Entries []SnapshotEntry `json:"entries"`
}

// SnapshotEntry is one tuned (shape, imbalance) -> partition row.
type SnapshotEntry struct {
	M         int     `json:"m"`
	N         int     `json:"n"`
	K         int     `json:"k"`
	Imbalance float64 `json:"imbalance"`
	Partition []int   `json:"partition"`
}

// snapshotFile is the on-disk envelope: the payload bytes plus an integrity
// checksum over exactly those bytes. Truncation fails the JSON decode;
// bit-rot fails the checksum; both reject before any payload field is
// trusted.
type snapshotFile struct {
	Magic   string          `json:"magic"`
	Version int             `json:"version"`
	CRC32   string          `json:"crc32"`
	Payload json.RawMessage `json:"payload"`
}

// Snapshot captures the service's current warm state. It is safe under
// concurrent traffic: each tuner's cache is exported under its own lock, so
// the snapshot is a consistent per-primitive view (cross-primitive skew
// under live load is harmless — every entry is individually valid).
func (s *Service) Snapshot() *Snapshot {
	snap := &Snapshot{
		Version:        SnapshotVersion,
		Platform:       s.cfg.Plat,
		NGPUs:          s.cfg.NGPUs,
		CandidateLimit: s.cfg.CandidateLimit,
	}
	for p := range s.tuners {
		tn := s.tuners[p].Load()
		if tn == nil {
			continue
		}
		block := SnapshotPrim{Prim: hw.Primitive(p).String(), Curve: tn.Curve.Points()}
		for _, e := range tn.CacheSnapshot() {
			block.Entries = append(block.Entries, SnapshotEntry{
				M:         e.Shape.M,
				N:         e.Shape.N,
				K:         e.Shape.K,
				Imbalance: e.Imbalance,
				Partition: e.Partition,
			})
		}
		snap.Primitives = append(snap.Primitives, block)
	}
	sort.Slice(snap.Primitives, func(i, j int) bool { return snap.Primitives[i].Prim < snap.Primitives[j].Prim })
	return snap
}

// RestoreSnapshot re-admits a snapshot's warm state into the service:
// per-primitive tuners are rebuilt around the snapshotted curves, the tuned
// entries are replayed in LRU order, each pre-encoding its /query reply as
// it lands, and the engine's analytic backend is seeded with the same
// curves — so the restored replica answers warm, on the fast path,
// byte-identically to the service that wrote the snapshot. It returns how
// many entries the shape caches hold afterwards: entries past a cache's
// capacity are evicted as they are replayed and are not counted.
//
// Validation is all-or-nothing: a version, platform, GPU-count, or
// search-budget mismatch — or any entry that fails the wave-count transfer
// check — rejects the whole snapshot with no state mutated, leaving the
// service to start cold. Restoring is meant for boot; restoring a primitive
// the service has already materialized replaces that tuner wholesale.
func (s *Service) RestoreSnapshot(snap *Snapshot) (restored int, err error) {
	if snap.Version != SnapshotVersion {
		return 0, fmt.Errorf("serve: snapshot version %d, this binary speaks %d", snap.Version, SnapshotVersion)
	}
	if snap.Platform != s.cfg.Plat {
		return 0, fmt.Errorf("serve: snapshot was taken on platform %q, service runs %q", snap.Platform.Name, s.cfg.Plat.Name)
	}
	if snap.NGPUs != s.cfg.NGPUs {
		return 0, fmt.Errorf("serve: snapshot was taken at %d GPUs, service runs %d", snap.NGPUs, s.cfg.NGPUs)
	}
	if snap.CandidateLimit != s.cfg.CandidateLimit {
		// Partitions tuned under a different search budget are valid but
		// not byte-identical to what this service would tune; mixing them
		// with fresh tunes would make answers depend on restart history.
		return 0, fmt.Errorf("serve: snapshot was tuned with candidate limit %d, service uses %d", snap.CandidateLimit, s.cfg.CandidateLimit)
	}

	// Build everything off to the side first: nothing below may touch
	// service state until the whole snapshot has validated.
	type prepared struct {
		prim    hw.Primitive
		tn      *tuner.Tuner
		entries int
	}
	preps := make([]prepared, 0, len(snap.Primitives))
	seen := make(map[hw.Primitive]bool, len(snap.Primitives))
	for _, block := range snap.Primitives {
		p, err := ParsePrimitive(block.Prim)
		if err != nil {
			return 0, fmt.Errorf("serve: snapshot: %w", err)
		}
		if seen[p] {
			return 0, fmt.Errorf("serve: snapshot holds duplicate state for primitive %v", p)
		}
		seen[p] = true
		curve, err := stats.MakeCurve(block.Curve)
		if err != nil {
			return 0, fmt.Errorf("serve: snapshot primitive %v bandwidth curve: %w", p, err)
		}
		if c := s.cfg.Curves[p]; c != nil && !curveEqual(c.Points(), block.Curve) {
			return 0, fmt.Errorf("serve: snapshot primitive %v curve differs from the configured fleet curve", p)
		}
		tn := s.newTuner(p, curve)
		entries := make([]tuner.CacheEntry, len(block.Entries))
		for i, e := range block.Entries {
			entries[i] = tuner.CacheEntry{
				Shape:     gemm.Shape{M: e.M, N: e.N, K: e.K},
				Imbalance: e.Imbalance,
				Partition: gemm.Partition(e.Partition),
			}
		}
		if err := tn.SeedCache(entries); err != nil {
			return 0, fmt.Errorf("serve: snapshot: %w", err)
		}
		// Count what the cache kept: entries past its capacity were
		// evicted as they were replayed.
		preps = append(preps, prepared{prim: p, tn: tn, entries: tn.CacheSize()})
	}

	// Commit: seed the engine's analytic curves and install the tuners.
	for _, pr := range preps {
		s.eng.SeedCurve(s.cfg.Plat, s.cfg.NGPUs, pr.prim, pr.tn.Curve)
		s.tuners[pr.prim].Store(pr.tn)
		restored += pr.entries
	}
	s.snapshotRestored.Add(uint64(restored))
	return restored, nil
}

func curveEqual(a, b []stats.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SaveSnapshotFile writes the service's warm state to path atomically: the
// envelope lands in a temp file in the same directory and renames over the
// target, so a crash mid-save can never leave a truncated snapshot where a
// good one stood — readers see the old complete file or the new complete
// file, nothing in between.
func (s *Service) SaveSnapshotFile(path string) error {
	payload, err := json.Marshal(s.Snapshot())
	if err != nil {
		return fmt.Errorf("serve: encoding snapshot: %w", err)
	}
	out, err := json.Marshal(snapshotFile{
		Magic:   snapshotMagic,
		Version: SnapshotVersion,
		CRC32:   fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload)),
		Payload: payload,
	})
	if err != nil {
		return fmt.Errorf("serve: encoding snapshot envelope: %w", err)
	}
	out = append(out, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: saving snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: saving snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: saving snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("serve: saving snapshot: %w", err)
	}
	return nil
}

// LoadSnapshotFile restores warm state from a snapshot file written by
// SaveSnapshotFile. Every failure — unreadable file, truncation, checksum
// mismatch, wrong magic/version, platform/config mismatch, corrupt entries —
// is deterministic, mutates nothing, and bumps the snapshot_rejects counter
// before returning: the caller logs the error and the service simply starts
// cold, exactly as if no snapshot existed.
func (s *Service) LoadSnapshotFile(path string) (restored int, err error) {
	defer func() {
		if err != nil {
			s.snapshotRejects.Add(1)
		}
	}()
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("serve: reading snapshot: %w", err)
	}
	var env snapshotFile
	if err := json.Unmarshal(raw, &env); err != nil {
		return 0, fmt.Errorf("serve: snapshot %s is corrupt (truncated or not JSON): %w", path, err)
	}
	if env.Magic != snapshotMagic {
		return 0, fmt.Errorf("serve: %s is not a warm-state snapshot (magic %q)", path, env.Magic)
	}
	if env.Version != SnapshotVersion {
		return 0, fmt.Errorf("serve: snapshot %s is version %d, this binary speaks %d", path, env.Version, SnapshotVersion)
	}
	if sum := fmt.Sprintf("%08x", crc32.ChecksumIEEE(env.Payload)); sum != env.CRC32 {
		return 0, fmt.Errorf("serve: snapshot %s failed its checksum (%s, recorded %s)", path, sum, env.CRC32)
	}
	var snap Snapshot
	if err := json.Unmarshal(env.Payload, &snap); err != nil {
		return 0, fmt.Errorf("serve: snapshot %s payload is corrupt: %w", path, err)
	}
	return s.RestoreSnapshot(&snap)
}
