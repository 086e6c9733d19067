// Package store provides the durable tier of the exploration service's
// artifact cache: an on-disk, content-addressed blob store that survives
// process restarts, so the expensive simulate/analyze setup the paper
// amortizes across design-point queries is also amortized across service
// lifetimes. A killed or restarted rpserved reopens its store directory and
// immediately serves cache hits for every trace it has ever analyzed.
//
// Guarantees:
//   - publication is atomic: each entry is one object file (object.go),
//     written to a temporary file, synced, and renamed into place — a crash
//     at any instant leaves either the old or the new object, never a torn
//     entry, and there is no index to keep in step with the objects;
//   - corruption is detected, never served: every object carries a SHA-256
//     checksum verified on read, and a mismatching or unreadable entry is
//     dropped and reported as a miss so the caller rebuilds it;
//   - capacity is bounded: beyond MaxBytes the least-recently-used entries
//     are evicted. Recency survives a restart as file mtime, which a hit
//     refreshes;
//   - the store is safe for concurrent use by one process. Cross-process
//     sharing of one directory is not supported.
//
// The store holds opaque bytes. Concurrency deduplication (single-flight)
// and typed encode/decode live one layer up, in serve/cache.Tiered.
package store

import (
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Options parameterizes Open.
type Options struct {
	// MaxBytes bounds the total payload bytes kept on disk; beyond it the
	// least-recently-used entries are evicted. Non-positive means unbounded.
	MaxBytes int64
	// Logger receives structured warnings for the events an operator should
	// see — corrupt entries dropped, evictions. Nil discards.
	Logger *slog.Logger
}

// Store is an on-disk content-addressed blob store. Construct with Open.
type Store struct {
	dir      string
	maxBytes int64
	logger   *slog.Logger

	mu      sync.Mutex
	entries map[string]*entry // keyed by object file name
	bytes   int64
	tick    uint64

	hits, misses, corruptions, evictions atomic.Uint64
	savedNS                              atomic.Int64
}

// entry is the in-memory record of one object file.
type entry struct {
	size    int64  // payload bytes
	lastUse uint64 // recency tick for LRU eviction
	// hdr is the header this process published for the entry, so a
	// duplicate Put is decided without touching the disk. It is zero for
	// an entry found at Open; Put then reads the header from the file.
	// Never changed once the entry is indexed, so it is read unlocked.
	hdr header
}

// Open loads (or initializes) the store rooted at dir. It lists objects/
// and indexes every object file by name, its payload size and its mtime as
// recency, reading no object bytes: a truncated or rotted object is caught
// by the checksum when it is first read. Stale temporaries from a crashed
// publication are removed.
func Open(dir string, opts Options) (*Store, error) {
	if err := openRoot(dir); err != nil {
		return nil, err
	}
	des, err := os.ReadDir(filepath.Join(dir, objectsSub))
	if err != nil {
		return nil, fmt.Errorf("store: listing objects: %w", err)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Store{dir: dir, maxBytes: opts.MaxBytes, logger: logger,
		entries: make(map[string]*entry, len(des))}

	infos := make([]fs.FileInfo, 0, len(des))
	for _, de := range des {
		if fi, err := de.Info(); err == nil && fi.Mode().IsRegular() {
			infos = append(infos, fi) // else vanished since the listing
		}
	}
	sort.Slice(infos, func(i, j int) bool {
		if mi, mj := infos[i].ModTime(), infos[j].ModTime(); !mi.Equal(mj) {
			return mi.Before(mj)
		}
		return infos[i].Name() < infos[j].Name()
	})
	for _, fi := range infos {
		s.tick++
		size := max(fi.Size()-headerLen, 0)
		s.entries[fi.Name()] = &entry{size: size, lastUse: s.tick}
		s.bytes += size
	}
	s.mu.Lock()
	s.gcLocked()
	s.mu.Unlock()
	return s, nil
}

// Get returns the payload published under key, its recorded build cost and
// true on a hit. A missing key is a miss; an unreadable or
// checksum-mismatching object is corruption — the entry is dropped, the
// corruption counter bumped, and the call reports a miss so the caller
// rebuilds and republishes. Every hit adds the entry's recorded build cost
// to the saved-setup counter: that cost is exactly what the caller did not
// re-pay.
func (s *Store) Get(key string) ([]byte, time.Duration, bool) {
	n := objectName(key)
	name := string(n[:])
	s.mu.Lock()
	e, ok := s.entries[name]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, 0, false
	}
	s.tick++
	e.lastUse = s.tick
	s.mu.Unlock()

	path := objectPath(s.dir, name)
	raw, err := os.ReadFile(path)
	if err == nil {
		payload, cost, derr := decodeObject(raw)
		if derr == nil {
			// Best effort: the mtime carries recency across a restart.
			now := time.Now()
			_ = os.Chtimes(path, now, now)
			s.hits.Add(1)
			s.savedNS.Add(int64(cost))
			return payload, cost, true
		}
		err = derr
	}
	// Unreadable or rotted: drop the entry so the next Put can rebuild it.
	// The caller only sees a miss, so the warning is the one place the
	// damage is visible.
	s.corruptions.Add(1)
	s.logger.Warn("store: dropping corrupt entry, reporting miss",
		slog.String("key", key), slog.String("error", err.Error()))
	s.mu.Lock()
	// A Put that replaced the entry meanwhile published a verified object
	// of its own; only the entry this Get read is dropped.
	if s.entries[name] == e {
		s.dropLocked(name)
	}
	s.mu.Unlock()
	return nil, 0, false
}

// Put publishes payload under key with its build cost, atomically:
// write-to-temp, sync, rename. Re-publishing an existing key replaces it —
// unless the object already holds a byte-identical payload, in which case
// Put is a cheap idempotent no-op that only bumps the entry's recency in
// memory. That is the duplicate-publication path a fleet's work-stealing
// double completion takes; for an entry this process published it reads
// nothing from disk. Put never leaves a partially visible entry; on error
// the store's prior state is intact.
func (s *Store) Put(key string, payload []byte, cost time.Duration) error {
	if err := checkKey(key); err != nil {
		return err
	}
	n := objectName(key)
	s.mu.Lock()
	e := s.entries[string(n[:])]
	s.mu.Unlock()
	if e != nil && (e.hdr.verify(payload) == nil || published(objectPath(s.dir, string(n[:])), payload)) {
		s.mu.Lock()
		s.tick++
		e.lastUse = s.tick
		s.mu.Unlock()
		return nil
	}

	name := string(n[:])
	hdr, err := writeObject(s.dir, objectPath(s.dir, name), payload, cost)
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[name]; ok {
		s.bytes -= old.size
	}
	s.tick++
	s.entries[name] = &entry{size: int64(len(payload)), lastUse: s.tick, hdr: hdr}
	s.bytes += int64(len(payload))
	s.gcLocked()
	return nil
}

// Delete removes key if present. Used by the tier above when a payload
// decodes to garbage despite a clean checksum (a codec version change):
// the entry is treated as corrupt and rebuilt.
func (s *Store) Delete(key string) {
	n := objectName(key)
	name := string(n[:])
	s.mu.Lock()
	if _, ok := s.entries[name]; ok {
		s.corruptions.Add(1)
		s.dropLocked(name)
	}
	s.mu.Unlock()
}

// dropLocked removes an entry and its object file. Called with mu held.
func (s *Store) dropLocked(name string) {
	if e, ok := s.entries[name]; ok {
		s.bytes -= e.size
		delete(s.entries, name)
		_ = os.Remove(objectPath(s.dir, name))
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
		var victim string
		var oldest *entry
		for name, e := range s.entries {
			if e.lastUse == s.tick {
				continue // the entry just published or touched
			}
			if oldest == nil || e.lastUse < oldest.lastUse {
				victim, oldest = name, e
			}
		}
		if oldest == nil {
			return
		}
		s.dropLocked(victim)
		s.evictions.Add(1)
		s.logger.Warn("store: evicted least-recently-used entry",
			slog.String("object", victim),
			slog.Int64("bytes", oldest.size),
			slog.Int64("store_bytes", s.bytes),
			slog.Int64("max_bytes", s.maxBytes))
	}
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
