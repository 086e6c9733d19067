// Package store provides the durable tier of the exploration service's
// artifact cache: an on-disk, content-addressed blob store that survives
// process restarts, so the expensive simulate/analyze setup the paper
// amortizes across design-point queries is also amortized across service
// lifetimes. A killed or restarted rpserved reopens its store directory and
// immediately serves cache hits for every trace it has ever analyzed.
//
// Guarantees:
//   - publication is atomic: payloads are written to a temporary file,
//     synced, and renamed into place, then the manifest is rewritten the
//     same way — a crash at any instant leaves either the old or the new
//     state, never a torn entry;
//   - corruption is detected, never served: every payload carries a SHA-256
//     checksum verified on read, and a mismatching or unreadable entry is
//     dropped and reported as a miss so the caller rebuilds it;
//   - capacity is bounded: beyond MaxBytes the least-recently-used entries
//     are evicted (files deleted, manifest rewritten);
//   - the store is safe for concurrent use by one process. Cross-process
//     sharing of one directory is not supported.
//
// The store holds opaque bytes. Concurrency deduplication (single-flight)
// and typed encode/decode live one layer up, in serve/cache.Tiered.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Options parameterizes Open.
type Options struct {
	// MaxBytes bounds the total payload bytes kept on disk; beyond it the
	// least-recently-used entries are evicted. Non-positive means unbounded.
	MaxBytes int64
	// Logger receives structured warnings for the events an operator should
	// see — corrupt entries dropped, manifest damage, evictions. Nil
	// discards.
	Logger *slog.Logger
	// Tracer, when non-nil, records store activity as spans: read and
	// verify per Get, evict per garbage-collected entry. Nil records
	// nothing.
	Tracer *obs.Tracer
}

// Store is an on-disk content-addressed blob store. Construct with Open.
type Store struct {
	dir      string
	maxBytes int64
	logger   *slog.Logger
	tracer   *obs.Tracer

	mu      sync.Mutex
	entries map[string]*entryMeta
	bytes   int64
	tick    uint64

	hits, misses, corruptions, evictions atomic.Uint64
	savedNS                              atomic.Int64
}

// Open loads (or initializes) the store rooted at dir. An existing manifest
// is read and verified: if it is missing, truncated or corrupt the store
// starts empty, and entries whose object files have vanished or changed
// size are dropped. Orphaned object files (present on disk, absent from the
// index) are removed, so a crash between payload publication and manifest
// rewrite cannot leak disk space.
func Open(dir string, opts Options) (*Store, error) {
	for _, sub := range []string{objectsSub, tmpSub} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", sub, err)
		}
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Store{dir: dir, maxBytes: opts.MaxBytes, logger: logger, tracer: opts.Tracer,
		entries: make(map[string]*entryMeta)}

	if raw, err := os.ReadFile(s.manifestPath()); err == nil {
		metas, derr := decodeManifest(raw)
		if derr != nil {
			// A torn or rotted manifest degrades to an empty index; the
			// objects it described are swept as orphans below.
			s.corruptions.Add(1)
			s.logger.Warn("store: manifest corrupt, starting with an empty index",
				slog.String("dir", dir), slog.String("error", derr.Error()))
		} else {
			for i := range metas {
				e := metas[i]
				fi, serr := os.Stat(s.objectPath(e.Key))
				if serr != nil || fi.Size() != e.Size {
					// The object vanished or was truncated behind our back;
					// drop the entry rather than fail reads later.
					if serr == nil {
						s.corruptions.Add(1)
						s.logger.Warn("store: dropping entry with truncated object",
							slog.String("key", e.Key),
							slog.Int64("manifest_size", e.Size),
							slog.Int64("object_size", fi.Size()))
					}
					continue
				}
				if e.LastUse > s.tick {
					s.tick = e.LastUse
				}
				ec := e
				s.entries[e.Key] = &ec
				s.bytes += e.Size
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: reading manifest: %w", err)
	}

	s.sweepOrphans()
	// Stale temporaries from a crashed publication are plain garbage.
	if tmps, err := os.ReadDir(filepath.Join(dir, tmpSub)); err == nil {
		for _, de := range tmps {
			_ = os.Remove(filepath.Join(dir, tmpSub, de.Name()))
		}
	}
	s.mu.Lock()
	s.gcLocked()
	s.mu.Unlock()
	return s, nil
}

const (
	objectsSub   = "objects"
	tmpSub       = "tmp"
	manifestName = "MANIFEST"
)

func (s *Store) manifestPath() string { return filepath.Join(s.dir, manifestName) }

// objectPath addresses the payload file of one key: objects/<sha256(key)>.
// Hashing the key keeps arbitrary key strings out of the filesystem
// namespace.
func (s *Store) objectPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, objectsSub, hex.EncodeToString(sum[:]))
}

// sweepOrphans removes object files the index does not reference.
func (s *Store) sweepOrphans() {
	known := make(map[string]bool, len(s.entries))
	for key := range s.entries {
		known[filepath.Base(s.objectPath(key))] = true
	}
	des, err := os.ReadDir(filepath.Join(s.dir, objectsSub))
	if err != nil {
		return
	}
	for _, de := range des {
		if !known[de.Name()] {
			_ = os.Remove(filepath.Join(s.dir, objectsSub, de.Name()))
		}
	}
}

// Get returns the payload published under key, its recorded build cost and
// true on a hit. A missing key is a miss; an unreadable or
// checksum-mismatching payload is corruption — the entry is dropped, the
// corruption counter bumped, and the call reports a miss so the caller
// rebuilds and republishes. Every hit adds the entry's recorded build cost
// to the saved-setup counter: that cost is exactly what the caller did not
// re-pay.
func (s *Store) Get(key string) ([]byte, time.Duration, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, 0, false
	}
	s.tick++
	e.LastUse = s.tick
	path, wantSum, cost := s.objectPath(key), e.Sum, e.Cost
	s.mu.Unlock()

	rd := s.tracer.Start(obs.CatStore, "read")
	rd.SetDetail(key)
	raw, err := os.ReadFile(path)
	rd.SetArg("bytes", int64(len(raw)))
	rd.End()
	if err == nil {
		vf := s.tracer.Start(obs.CatStore, "verify")
		vf.SetDetail(key)
		sum := sha256.Sum256(raw)
		match := sum == wantSum
		vf.End()
		if match {
			s.hits.Add(1)
			s.savedNS.Add(int64(cost))
			return raw, cost, true
		}
	}
	// Unreadable or rotted: drop the entry so the next Put can rebuild it.
	// The caller only sees a miss, so the warning is the one place the
	// damage is visible.
	s.corruptions.Add(1)
	s.logger.Warn("store: dropping corrupt entry, reporting miss",
		slog.String("key", key), slog.Bool("unreadable", err != nil))
	s.mu.Lock()
	s.dropLocked(key)
	s.flushLocked()
	s.mu.Unlock()
	return nil, 0, false
}

// Put publishes payload under key with its build cost, atomically:
// write-to-temp, sync, rename, then manifest rewrite (same discipline).
// Re-publishing an existing key replaces it — unless the payload is
// byte-identical to what the index already records (same digest and size),
// in which case Put is a cheap idempotent no-op: the entry's recency is
// bumped in memory, but neither the object file nor the manifest is
// rewritten. That is the duplicate-publication path a fleet's work-stealing
// double completion takes. Put never leaves a partially visible entry; on
// error the store's prior state is intact.
func (s *Store) Put(key string, payload []byte, cost time.Duration) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	if len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d exceeds %d", len(key), maxKeyLen)
	}
	sum := sha256.Sum256(payload)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok && e.Sum == sum && e.Size == int64(len(payload)) {
		s.tick++
		e.LastUse = s.tick
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	if err := WriteFileAtomic(filepath.Join(s.dir, tmpSub), "obj-*", s.objectPath(key), payload); err != nil {
		return fmt.Errorf("store: publishing object: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[key]; ok {
		s.bytes -= old.Size
	}
	s.tick++
	s.entries[key] = &entryMeta{
		Key:     key,
		Sum:     sum,
		Size:    int64(len(payload)),
		Cost:    cost,
		LastUse: s.tick,
	}
	s.bytes += int64(len(payload))
	s.gcLocked()
	return s.flushLocked()
}

// Delete removes key if present. Used by the tier above when a payload
// decodes to garbage despite a clean checksum (a codec version change):
// the entry is treated as corrupt and rebuilt.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	if _, ok := s.entries[key]; ok {
		s.corruptions.Add(1)
		s.dropLocked(key)
		_ = s.flushLocked()
	}
	s.mu.Unlock()
}

// dropLocked removes an entry and its object file. Called with mu held.
func (s *Store) dropLocked(key string) {
	if e, ok := s.entries[key]; ok {
		s.bytes -= e.Size
		delete(s.entries, key)
		_ = os.Remove(s.objectPath(key))
	}
}

// gcLocked evicts least-recently-used entries until the store fits
// MaxBytes. The newest entry is never evicted: one oversized artifact may
// transiently overshoot the bound rather than thrash (publish, evict,
// rebuild, publish...). Called with mu held.
func (s *Store) gcLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && len(s.entries) > 1 {
		var victim *entryMeta
		for _, e := range s.entries {
			if e.LastUse == s.tick {
				continue // the entry just published or touched
			}
			if victim == nil || e.LastUse < victim.LastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		key, size := victim.Key, victim.Size
		ev := s.tracer.Start(obs.CatStore, "evict")
		ev.SetDetail(key)
		ev.SetArg("bytes", size)
		s.dropLocked(key)
		ev.End()
		s.evictions.Add(1)
		s.logger.Warn("store: evicted least-recently-used entry",
			slog.String("key", key),
			slog.Int64("bytes", size),
			slog.Int64("store_bytes", s.bytes),
			slog.Int64("max_bytes", s.maxBytes))
	}
}

// flushLocked rewrites the manifest atomically. Called with mu held.
func (s *Store) flushLocked() error {
	metas := make([]entryMeta, 0, len(s.entries))
	for _, e := range s.entries {
		metas = append(metas, *e)
	}
	// Canonical order keeps the manifest bytes deterministic for a given
	// state, which the fuzz round-trip relies on.
	sort.Slice(metas, func(i, j int) bool { return metas[i].Key < metas[j].Key })
	raw := encodeManifest(metas)

	if err := WriteFileAtomic(filepath.Join(s.dir, tmpSub), "manifest-*", s.manifestPath(), raw); err != nil {
		return fmt.Errorf("store: publishing manifest: %w", err)
	}
	return nil
}

// Len returns the number of published entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats is a point-in-time snapshot of the store's state and counters.
type Stats struct {
	Entries     int
	Bytes       int64
	Hits        uint64
	Misses      uint64
	Corruptions uint64
	Evictions   uint64
	// SavedSetup accumulates the recorded build cost of every hit: the
	// setup time this process avoided re-paying thanks to the durable tier
	// (including work done by previous processes over the same directory).
	SavedSetup time.Duration
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := len(s.entries), s.bytes
	s.mu.Unlock()
	return Stats{
		Entries:     entries,
		Bytes:       bytes,
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Corruptions: s.corruptions.Load(),
		Evictions:   s.evictions.Load(),
		SavedSetup:  time.Duration(s.savedNS.Load()),
	}
}
