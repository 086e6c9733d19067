package store

import (
	"os"
	"sync/atomic"
)

// shared.go — the fleet's cross-process blob root. Store (store.go) is
// documented single-process: its in-memory index and LRU accounting assume
// one owner of the directory. The fleet needs the opposite shape — one
// directory written by a coordinator and any number of worker processes on
// the same host — so Shared keeps no cross-entry state at all. Its objects
// use Store's self-verifying format (object.go) with a zero build cost,
// published by atomic temp-write + sync + rename. Concurrent publishers of
// the same key with the same payload converge on identical bytes; readers
// verify every payload and drop what fails. Give Shared its own directory
// (conventionally a `fleet/` subdirectory next to a Store root), so each
// root's eviction and corruption counting stay its own.

// Shared is an index-free, cross-process content-verified blob root.
// Construct with OpenShared.
type Shared struct {
	dir string

	puts, dupes, corruptions atomic.Uint64
}

// OpenShared initializes (or reopens) the shared root at dir. Stale
// temporaries from crashed publications are swept; published objects are
// never touched, because another live process may own them.
//
// Temporaries are only swept best-effort: a concurrent publisher's
// in-flight temp file may vanish under it, which its rename reports;
// callers retry. Single-host fleets restart their coordinator far more
// often than they race it, so the trade is fine.
func OpenShared(dir string) (*Shared, error) {
	if err := openRoot(dir); err != nil {
		return nil, err
	}
	return &Shared{dir: dir}, nil
}

// objectPath addresses one key's object file, as Store does.
func (s *Shared) objectPath(key string) string {
	n := objectName(key)
	return objectPath(s.dir, string(n[:]))
}

// Put publishes payload under key, atomically and idempotently. When the key
// is already published with the same payload, Put is a cheap no-op that
// reads only the object's header and never rewrites the file — the
// work-stealing double-completion path, where two workers publish identical
// bytes — and reports dup=true. A different payload under the same key is
// replaced.
func (s *Shared) Put(key string, payload []byte) (dup bool, err error) {
	if err := checkKey(key); err != nil {
		return false, err
	}
	path := s.objectPath(key)
	if published(path, payload) {
		s.dupes.Add(1)
		return true, nil
	}
	if _, err := writeObject(s.dir, path, payload, 0); err != nil {
		return false, err
	}
	s.puts.Add(1)
	return false, nil
}

// Get returns the verified payload published under key. A missing key is a
// plain miss; a truncated or checksum-mismatching file is corruption — the
// file is removed so the next publisher rebuilds it — also reported as a
// miss.
func (s *Shared) Get(key string) ([]byte, bool) {
	path := s.objectPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if payload, _, err := decodeObject(raw); err == nil {
		return payload, true
	}
	s.corruptions.Add(1)
	_ = os.Remove(path)
	return nil, false
}

// Delete removes key if present. Used by the coordinator after a sweep's
// report is assembled: the chunk blobs were only ever its resume state.
func (s *Shared) Delete(key string) {
	_ = os.Remove(s.objectPath(key))
}

// SharedStats is a point-in-time snapshot of one process's counters; other
// processes over the same directory keep their own.
type SharedStats struct {
	Puts        uint64 // objects actually written
	Duplicates  uint64 // Put calls satisfied without a rewrite
	Corruptions uint64 // payloads dropped on verification failure
}

// Stats snapshots the counters.
func (s *Shared) Stats() SharedStats {
	return SharedStats{
		Puts:        s.puts.Load(),
		Duplicates:  s.dupes.Load(),
		Corruptions: s.corruptions.Load(),
	}
}
