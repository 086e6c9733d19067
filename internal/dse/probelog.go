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

// probelog.go — crash-safe search resume. A probe-logged search persists
// every completed probe round as one chunk file in the checkpoint layer's
// exact on-disk format (magic, version, fingerprint, (index, cycles) pairs,
// SHA-256 trailer; atomic temp+sync+rename publication), keyed by canonical
// design-point index instead of sweep position. A killed search loses at
// most the round in flight: because the search driver is deterministic in
// the probed cycle values, a restarted run replays its decision sequence,
// satisfies already-logged rounds from the restored cache without touching
// the engine, and re-evaluates only from the lost round on — returning a
// result identical to an uninterrupted run's.
//
// A corrupt chunk is deleted and its probes re-evaluated; a healthy chunk
// carrying a different search fingerprint (engine inputs, space, spec or
// baseline changed) is a hard error, mirroring the sweep checkpoint.

// probePrefix names probe-log chunk files; distinct from the sweep
// checkpoint's "chunk-" so the two layers can never ingest each other's
// files by accident.
const probePrefix = "probe-"

// searchFingerprint binds a probe log to everything that determines which
// probes a search makes and what they return: the engine and its prepared
// input (streamed by salt), the canonical search plan (axes, sorted values,
// cost model, full spec) and the baseline latencies off-axis events keep.
func searchFingerprint(method string, salt func(io.Writer) error, plan *SearchPlan, base stacks.Latencies) ([]byte, error) {
	h := sha256.New()
	fmt.Fprintf(h, "search|%s|%s|", method, plan.spec.String())
	if salt != nil {
		if err := salt(h); err != nil {
			return nil, fmt.Errorf("dse: fingerprinting engine input: %w", err)
		}
	}
	var b [8]byte
	for _, a := range plan.axes {
		fmt.Fprintf(h, "|%d:%d:", a.event, len(a.vals))
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.weight))
		h.Write(b[:])
		for _, v := range a.vals {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	h.Write([]byte("|base|"))
	for _, v := range base {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum(nil), nil
}

// saveProbeChunk atomically publishes one completed probe round. Rounds
// probe disjoint index sets (a cached probe is never re-evaluated), so the
// first index names the file uniquely across rounds and resumes.
func saveProbeChunk(dir string, fp []byte, idxs []uint64, cycles []float64) error {
	ints := make([]int, len(idxs))
	for k, idx := range idxs {
		ints[k] = int(idx) // NewSearchPlan bounds indices well under MaxInt
	}
	final := filepath.Join(dir, fmt.Sprintf("%s%012d", probePrefix, idxs[0]))
	if err := store.WriteFileAtomic(dir, "tmp-*", final, encodeChunk([sha256.Size]byte(fp), ints, cycles)); err != nil {
		return fmt.Errorf("dse: publishing probe-log chunk: %w", err)
	}
	return nil
}

// loadProbeLog restores every readable probe chunk in dir (created if
// absent) into cache and returns the restored probe count. Corrupt or
// structurally impossible chunks are deleted (their probes re-evaluated); a
// healthy chunk of a different search is a hard error. Each restored chunk
// is recorded as one resume span under parent; tr may be nil.
func loadProbeLog(dir string, fp []byte, grid uint64, cache map[uint64]float64, tr *obs.Tracer, parent uint64) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("dse: creating probe-log dir: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("dse: reading probe-log dir: %w", err)
	}
	restored := 0
	for _, de := range des {
		if !strings.HasPrefix(de.Name(), probePrefix) {
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
		if gotFP != [sha256.Size]byte(fp) {
			return 0, fmt.Errorf("dse: probe log %s belongs to a different search (engine inputs, space, spec or baseline changed)", path)
		}
		healthy := true
		for _, e := range entries {
			if e.idx < 0 || uint64(e.idx) >= grid {
				healthy = false
				break
			}
			if _, dup := cache[uint64(e.idx)]; dup {
				healthy = false
				break
			}
		}
		if !healthy {
			// Out-of-range or duplicated indices are impossible for files
			// this search wrote; treat the file as damage and re-probe.
			_ = os.Remove(path)
			continue
		}
		for _, e := range entries {
			cache[uint64(e.idx)] = e.cycles
			restored++
		}
		sp := tr.StartChild(parent, obs.CatDSE, obs.NameResume)
		sp.SetArg(obs.ArgPoints, int64(len(entries)))
		sp.End()
	}
	return restored, nil
}

// removeProbeLog best-effort deletes every probe chunk in dir, then the
// directory if that left it empty — the Checkpoint.RemoveOnSuccess cleanup
// of a completed search.
func removeProbeLog(dir string) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range des {
		if strings.HasPrefix(de.Name(), probePrefix) {
			_ = os.Remove(filepath.Join(dir, de.Name()))
		}
	}
	_ = os.Remove(dir) // fails (and is kept) when anything else lives there
}
