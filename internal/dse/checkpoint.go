package dse

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
	"repro/internal/stacks"
	"repro/internal/store"
)

// checkpoint.go — crash-safe sweep resume. A checkpointed sweep persists
// every completed chunk of design points as its own file, published
// atomically (write-temp, sync, rename), so a killed sweep loses at most
// the chunk in flight. A later run over the same directory restores the
// persisted points, evaluates only the remainder, and returns Results
// provably identical to an uninterrupted run: points are stored by index,
// the engine's inputs are bound into every chunk by a fingerprint, and a
// chunk that fails its checksum is discarded (its points re-evaluated),
// never trusted.
//
// Only (index, cycles) pairs are persisted — the latency assignment of a
// point is recomputed from the point list, which the fingerprint covers.

// Checkpoint configures crash-safe persistence for one sweep.
type Checkpoint struct {
	// Dir is the checkpoint directory, created if absent. One directory
	// serves one logical sweep; reusing it for a different engine, point
	// list or engine input is detected via fingerprint and rejected.
	Dir string
	// RemoveOnSuccess deletes the chunk files once the sweep has completed
	// and its Report is final, so a finished run does not leave its whole
	// result set behind on disk. A failed or cancelled sweep always keeps
	// its chunks — they are exactly what the next run resumes from. Off by
	// default: callers that re-read a completed checkpoint (tests, tooling)
	// keep the historical keep-everything behavior.
	RemoveOnSuccess bool
}

const (
	chunkMagic   = "RPCKP"
	chunkVersion = 1
	chunkPrefix  = "chunk-"
	// maxChunkEntries bounds the per-chunk point count a decoder accepts.
	maxChunkEntries = 1 << 24
)

// sweepFingerprint binds a checkpoint to everything that determines a
// sweep's output: the engine, the engine's prepared input (streamed by
// salt), and the full design-point list.
func sweepFingerprint(method string, salt func(io.Writer) error, points []stacks.Latencies) ([sha256.Size]byte, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|", method, len(points))
	if salt != nil {
		if err := salt(h); err != nil {
			return [sha256.Size]byte{}, fmt.Errorf("dse: fingerprinting engine input: %w", err)
		}
	}
	var b [8]byte
	for i := range points {
		for _, v := range points[i] {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	return fp, nil
}

// encodeChunk renders one completed chunk: magic, version, fingerprint,
// count, (index, cycles) pairs, trailing SHA-256 of everything before it.
// idxs and cycles are aligned: cycles[k] is the result of point idxs[k].
func encodeChunk(fp [sha256.Size]byte, idxs []int, cycles []float64) []byte {
	var scratch [binary.MaxVarintLen64]byte
	buf := make([]byte, 0, len(chunkMagic)+2+sha256.Size+len(idxs)*12+sha256.Size)
	buf = append(buf, chunkMagic...)
	buf = append(buf, scratch[:binary.PutUvarint(scratch[:], chunkVersion)]...)
	buf = append(buf, fp[:]...)
	buf = append(buf, scratch[:binary.PutUvarint(scratch[:], uint64(len(idxs)))]...)
	var b [8]byte
	for k, i := range idxs {
		buf = append(buf, scratch[:binary.PutUvarint(scratch[:], uint64(i))]...)
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(cycles[k]))
		buf = append(buf, b[:]...)
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// chunkEntry is one decoded (point index, cycles) pair.
type chunkEntry struct {
	idx    int
	cycles float64
}

// decodeChunk parses one chunk file. It returns the embedded fingerprint
// separately from the entries so the caller can distinguish "corrupt file"
// (errCorruptChunk: discard and re-evaluate) from "healthy file of a
// different sweep" (a caller-level hard error).
func decodeChunk(raw []byte) (fp [sha256.Size]byte, entries []chunkEntry, err error) {
	if len(raw) < len(chunkMagic)+1+2*sha256.Size {
		return fp, nil, errCorruptChunk
	}
	body, sum := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	if sha256.Sum256(body) != [sha256.Size]byte(sum) {
		return fp, nil, errCorruptChunk
	}
	if string(body[:len(chunkMagic)]) != chunkMagic {
		return fp, nil, errCorruptChunk
	}
	rest := body[len(chunkMagic):]
	ver, n := binary.Uvarint(rest)
	if n <= 0 || ver != chunkVersion {
		return fp, nil, errCorruptChunk
	}
	rest = rest[n:]
	if len(rest) < sha256.Size {
		return fp, nil, errCorruptChunk
	}
	copy(fp[:], rest[:sha256.Size])
	rest = rest[sha256.Size:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > maxChunkEntries {
		return fp, nil, errCorruptChunk
	}
	rest = rest[n:]
	capHint := count
	if capHint > 1<<12 {
		capHint = 1 << 12
	}
	entries = make([]chunkEntry, 0, capHint)
	for k := uint64(0); k < count; k++ {
		idx, n := binary.Uvarint(rest)
		if n <= 0 {
			return fp, nil, errCorruptChunk
		}
		rest = rest[n:]
		if len(rest) < 8 {
			return fp, nil, errCorruptChunk
		}
		c := math.Float64frombits(binary.LittleEndian.Uint64(rest[:8]))
		rest = rest[8:]
		entries = append(entries, chunkEntry{idx: int(idx), cycles: c})
	}
	if len(rest) != 0 {
		return fp, nil, errCorruptChunk
	}
	return fp, entries, nil
}

var errCorruptChunk = fmt.Errorf("dse: corrupt checkpoint chunk")

// loadChunks restores every readable chunk in dir into results/done and
// returns the restored point count. Corrupt chunks are deleted (their
// points re-evaluated); a healthy chunk carrying a different fingerprint is
// a hard error, because silently mixing two sweeps' results is the one
// failure resume must never have. Each restored chunk is recorded as one
// resume span under parent (Arg = its point count), which is how the
// progress meter learns how much of the sweep arrived from disk; tr may be
// nil.
func loadChunks(dir string, fp [sha256.Size]byte, results []Result, done []bool, tr *obs.Tracer, parent uint64) (int, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("dse: reading checkpoint dir: %w", err)
	}
	restored := 0
	for _, de := range des {
		if !strings.HasPrefix(de.Name(), chunkPrefix) {
			continue
		}
		path := filepath.Join(dir, de.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			_ = os.Remove(path)
			continue
		}
		gotFP, entries, err := decodeChunk(raw)
		if err != nil {
			_ = os.Remove(path)
			continue
		}
		if gotFP != fp {
			return 0, fmt.Errorf("dse: checkpoint %s belongs to a different sweep (method, inputs or design points changed)", path)
		}
		healthy := true
		for _, e := range entries {
			if e.idx < 0 || e.idx >= len(results) || done[e.idx] {
				healthy = false
				break
			}
		}
		if !healthy {
			// Indices out of range or overlapping a chunk already loaded:
			// structurally impossible for files this sweep wrote, so treat
			// the file as damage and re-evaluate its points.
			_ = os.Remove(path)
			continue
		}
		for _, e := range entries {
			done[e.idx] = true
			results[e.idx].Cycles = e.cycles
			restored++
		}
		sp := tr.StartChild(parent, obs.CatDSE, obs.NameResume)
		sp.SetArg(obs.ArgPoints, int64(len(entries)))
		sp.End()
	}
	return restored, nil
}

// saveChunk atomically publishes one completed chunk. The file is named by
// the chunk's first point index, which is unique across resumes: a point
// lands in at most one published chunk, and chunks that failed to decode
// were deleted before their points became pending again.
func saveChunk(dir string, fp [sha256.Size]byte, idxs []int, results []Result) error {
	cycles := make([]float64, len(idxs))
	for k, i := range idxs {
		cycles[k] = results[i].Cycles
	}
	final := filepath.Join(dir, fmt.Sprintf("%s%09d", chunkPrefix, idxs[0]))
	if err := store.WriteFileAtomic(dir, "tmp-*", final, encodeChunk(fp, idxs, cycles)); err != nil {
		return fmt.Errorf("dse: publishing checkpoint chunk: %w", err)
	}
	return nil
}

// removeChunks best-effort deletes every chunk file in dir, then the
// directory itself if that left it empty. Called only after a sweep has
// completed and its Report is final (Checkpoint.RemoveOnSuccess), so losing
// the files can no longer lose results; errors are ignored because a
// leftover file merely re-creates the pre-cleanup behavior.
func removeChunks(dir string) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range des {
		if strings.HasPrefix(de.Name(), chunkPrefix) {
			_ = os.Remove(filepath.Join(dir, de.Name()))
		}
	}
	_ = os.Remove(dir) // fails (and is kept) when anything else lives there
}
