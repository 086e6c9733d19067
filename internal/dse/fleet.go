package dse

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/stacks"
)

// fleet.go — the exported face of the checkpoint identity and chunk
// machinery, for internal/fleet. A distributed sweep reuses the exact
// fingerprint salts and chunk encoding the crash-safe checkpoint uses, so a
// worker process can prove it rebuilt the coordinator's engine inputs
// bit-identically (fingerprint equality) and a chunk result blob published
// into a shared store is byte-compatible with a checkpoint chunk file.

// SweepFingerprint returns the identity hash Explore computes for a
// checkpointed sweep of the engine over points: SHA-256 over the engine's
// method name, its input stream (the salt) and the full point list.
func SweepFingerprint(e *Engine, points []stacks.Latencies) ([]byte, error) {
	fp, err := sweepFingerprint(e.method, e.salt, points)
	if err != nil {
		return nil, err
	}
	return fp[:], nil
}

// EncodeChunk renders one completed chunk of sweep results in the checkpoint
// chunk format — magic, version, fingerprint, count, (index, cycles) pairs,
// trailing SHA-256 — binding the results to the sweep identity fingerprint.
// idxs and cycles are aligned (cycles[k] belongs to point idxs[k]) and must
// be non-empty; fingerprint must be a full SHA-256 as SweepFingerprint returns.
func EncodeChunk(fingerprint []byte, idxs []int, cycles []float64) ([]byte, error) {
	if len(fingerprint) != sha256.Size {
		return nil, fmt.Errorf("dse: chunk fingerprint must be %d bytes, got %d", sha256.Size, len(fingerprint))
	}
	if len(idxs) == 0 || len(idxs) != len(cycles) {
		return nil, fmt.Errorf("dse: chunk wants aligned non-empty indices and cycles, got %d and %d", len(idxs), len(cycles))
	}
	return encodeChunk([sha256.Size]byte(fingerprint), idxs, cycles), nil
}

// DecodeChunk parses a chunk blob and verifies it belongs to the sweep named
// by fingerprint. A damaged blob (truncation, checksum mismatch) and a
// healthy blob of a different sweep are both errors — the fleet layer never
// resumes across them, it re-evaluates the chunk instead.
func DecodeChunk(fingerprint, raw []byte) (idxs []int, cycles []float64, err error) {
	if len(fingerprint) != sha256.Size {
		return nil, nil, fmt.Errorf("dse: chunk fingerprint must be %d bytes, got %d", sha256.Size, len(fingerprint))
	}
	fp, entries, err := decodeChunk(raw)
	if err != nil {
		return nil, nil, err
	}
	if fp != [sha256.Size]byte(fingerprint) {
		return nil, nil, fmt.Errorf("dse: chunk belongs to a different sweep")
	}
	idxs = make([]int, len(entries))
	cycles = make([]float64, len(entries))
	for k, e := range entries {
		idxs[k] = e.idx
		cycles[k] = e.cycles
	}
	return idxs, cycles, nil
}
