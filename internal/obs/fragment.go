package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"
)

// fragment.go — the cross-process span transport. A fleet worker cannot hand
// its span records to the coordinator in memory, so it serializes them as a
// *fragment*: a proof-carrying blob published into the shared store root
// alongside the chunk result blobs, bound to the same sweep identity
// fingerprint and framed with a trailing checksum. The coordinator's
// assembly phase decodes every fragment it finds, drops damaged or foreign
// ones with a counter — a lost fragment degrades the timeline, never the
// sweep — and merges the survivors into one multi-process timeline
// (MergeTimeline).

// ClockSync is one measured clock-correspondence between a worker tracer and
// the coordinator tracer, captured NTP-style around a lease round-trip: T0
// and T1 are the worker clock immediately before and after the lease POST,
// Coord is the coordinator clock stamped into the response. The coordinator
// produced its stamp somewhere inside [T0, T1], so the midpoint estimates
// the offset with error bounded by half the round-trip.
type ClockSync struct {
	T0    time.Duration `json:"t0"`
	T1    time.Duration `json:"t1"`
	Coord time.Duration `json:"coord"`
}

// Offset is the estimated coordinator-minus-worker clock difference: adding
// it to a worker-clock timestamp maps it onto the coordinator's timebase.
func (s ClockSync) Offset() time.Duration { return s.Coord - (s.T0+s.T1)/2 }

// RTT is the sync's lease round-trip time — the uncertainty window of its
// Offset.
func (s ClockSync) RTT() time.Duration { return s.T1 - s.T0 }

// Fragment is one process's contribution to a merged timeline: its span
// records on its own tracer clock, plus the clock sync that maps them onto
// the coordinator's.
type Fragment struct {
	// Process identifies the emitting process (the fleet worker ID); it
	// names the fragment's track in the merged timeline.
	Process string `json:"process"`
	// Records are the process's completed spans, on its own tracer clock.
	Records []Record `json:"records"`
	// Sync maps this process's clock onto the coordinator's; HasSync is
	// false when no lease round-trip was captured (the records then merge
	// un-normalized, offset zero).
	Sync    ClockSync `json:"sync"`
	HasSync bool      `json:"has_sync"`
}

// Fragment blob framing: magic, sweep fingerprint, payload length, JSON
// payload, trailing SHA-256 over everything before it. The shape mirrors the
// chunk result blobs (dse.EncodeChunk): identity first, checksum last, so a
// reader rejects damage and foreign sweeps before trusting a byte of
// payload.
const fragMagic = "RPFRG1"

const fragOverhead = len(fragMagic) + sha256.Size + 8 + sha256.Size

// EncodeFragment renders frag as a proof-carrying blob bound to the sweep
// identity fingerprint (a full SHA-256, as dse.SweepFingerprint returns).
func EncodeFragment(fingerprint []byte, frag *Fragment) ([]byte, error) {
	if len(fingerprint) != sha256.Size {
		return nil, fmt.Errorf("obs: fragment fingerprint must be %d bytes, got %d", sha256.Size, len(fingerprint))
	}
	payload, err := json.Marshal(frag)
	if err != nil {
		return nil, fmt.Errorf("obs: encoding fragment payload: %w", err)
	}
	buf := make([]byte, 0, fragOverhead+len(payload))
	buf = append(buf, fragMagic...)
	buf = append(buf, fingerprint...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...), nil
}

// DecodeFragment parses a fragment blob and verifies it: intact framing, a
// matching trailing checksum, and the given sweep fingerprint. Any failure is
// an error the caller turns into a dropped-fragment counter — never a failed
// sweep.
func DecodeFragment(fingerprint, raw []byte) (*Fragment, error) {
	if len(fingerprint) != sha256.Size {
		return nil, fmt.Errorf("obs: fragment fingerprint must be %d bytes, got %d", sha256.Size, len(fingerprint))
	}
	if len(raw) < fragOverhead {
		return nil, fmt.Errorf("obs: fragment blob truncated at %d bytes", len(raw))
	}
	if string(raw[:len(fragMagic)]) != fragMagic {
		return nil, fmt.Errorf("obs: fragment blob has wrong magic")
	}
	body, tail := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], tail) {
		return nil, fmt.Errorf("obs: fragment blob checksum mismatch")
	}
	fp := raw[len(fragMagic) : len(fragMagic)+sha256.Size]
	if !bytes.Equal(fp, fingerprint) {
		return nil, fmt.Errorf("obs: fragment belongs to a different sweep")
	}
	n := binary.BigEndian.Uint64(raw[len(fragMagic)+sha256.Size:])
	payload := body[len(fragMagic)+sha256.Size+8:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("obs: fragment payload is %d bytes, header says %d", len(payload), n)
	}
	var frag Fragment
	if err := json.Unmarshal(payload, &frag); err != nil {
		return nil, fmt.Errorf("obs: decoding fragment payload: %w", err)
	}
	return &frag, nil
}
