package store

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"time"
)

// FuzzStoreObject drives the object decoder with arbitrary bytes. The
// decoder guards the store's trust boundary with the filesystem: a torn
// write, bit rot, a legacy file or a hostile edit must come back as an
// error — never a panic, never an accepted object that does not round-trip,
// and never a payload copied into an allocation sized by a length the
// checksum has not vouched for.
func FuzzStoreObject(f *testing.F) {
	payload := []byte("RPAN analysis bytes")
	h := newHeader(3*time.Second, payload)
	valid := append(h[:], payload...)
	f.Add(valid)
	f.Add(valid[:headerLen-1]) // truncated header
	f.Add(payload)             // a legacy Store object: the raw payload
	sum := sha256.Sum256(payload)
	f.Add(append(sum[:], payload...)) // a legacy Shared object: sha256‖payload
	f.Add([]byte{})                   // an empty file
	future := bytes.Clone(valid)
	future[6]++ // an unknown format version over a valid checksum
	f.Add(future)

	f.Fuzz(func(t *testing.T, raw []byte) {
		got, cost, err := decodeObject(raw)
		if err != nil {
			return // rejected input: the only other acceptable outcome
		}
		if len(got) > 0 && &got[0] != &raw[headerLen] {
			t.Fatal("decoder copied the payload instead of aliasing the input")
		}
		h := newHeader(cost, got)
		if !bytes.Equal(append(h[:], got...), raw) {
			t.Fatal("accepted object does not round-trip through its encoding")
		}
	})
}
