// Package fleet distributes one design-space sweep across processes: a
// coordinator splits the point list into the same fingerprint-bound chunks
// the checkpoint layer uses, leases them to worker processes over a small
// HTTP protocol (lease TTL + heartbeat renewal, expiry → re-lease,
// work-stealing of straggler chunks), and assembles the final dse.Report
// from the chunk result blobs workers publish into a shared store root —
// exactly the way checkpoint resume rebuilds a Report from chunk files.
//
// The protocol is deliberately identity-first. A worker normally receives
// no points over the wire: it receives a SweepSpec — workload name, seed,
// µop count, engine, axes — deterministically rebuilds the engine inputs
// from it, and recomputes the sweep fingerprint. The one exception is an
// explicit sweep (a guided search's probe round), whose point list is not
// the axes' enumeration and so rides along in the sweep info; the
// fingerprint covers every point value either way. Only if that fingerprint equals
// the coordinator's sweep id does the worker evaluate anything; a mismatch
// means the two processes would disagree on the sweep's inputs, and the
// worker refuses outright rather than publish plausible-but-foreign
// results. Chunk blobs carry the fingerprint too (dse.EncodeChunk), so the
// coordinator verifies every completion the same way checkpoint restore
// verifies chunk files.
//
// Completion is first-writer-wins and idempotent: stolen chunks may be
// completed by two workers, whose deterministic engines publish identical
// bytes (store.Shared deduplicates the write), and the coordinator counts
// only the first completion. Losing the coordinator mid-sweep loses no
// finished work — a restarted coordinator re-registers the sweep, scans the
// shared root for published chunks, and resumes with Report.Resumed set.
package fleet

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/stacks"
)

// SweepSpec is the deterministic recipe of a sweep's engine inputs: enough
// for a worker process to rebuild the trace, analysis or graph bit-for-bit
// and enumerate the identical design-point list. It is the fleet analogue of
// a serve.JobSpec restricted to what regenerates — uploaded traces have no
// recipe and stay on the coordinator.
type SweepSpec struct {
	// Workload names a built-in synthetic workload (workload.ByName).
	Workload string `json:"workload"`
	// Seed feeds the deterministic workload generator.
	Seed int64 `json:"seed"`
	// MicroOps is the measured µop count; warmup is 3x, snapped to a
	// macro-op boundary, the shared convention of serve and experiments.
	MicroOps int `json:"micro_ops"`
	// Engine is the sweep engine: "rpstacks", "graph" or "sim".
	Engine string `json:"engine"`
	// Axes is the design space in the textual -axis form ("L1D=1,2,3,4"),
	// order-preserving because point enumeration is row-major over the axes.
	Axes []string `json:"axes"`
	// BatchSize is dse.ExploreOptions.BatchSize for the chunk evaluations
	// (0: each worker autotunes; results are identical at every width).
	BatchSize int `json:"batch_size,omitempty"`
}

// FormatAxes renders axes in the textual form SweepSpec carries, inverse to
// dse.ParseAxisSpec. Values use strconv 'g' formatting, which round-trips
// float64 exactly — the fingerprint hashes the parsed values, so formatting
// must not perturb them.
func FormatAxes(axes []dse.Axis) []string {
	out := make([]string, len(axes))
	for i, ax := range axes {
		var b strings.Builder
		b.WriteString(ax.Event.String())
		b.WriteByte('=')
		for j, v := range ax.Values {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		out[i] = b.String()
	}
	return out
}

// parseAxes parses the textual axes back into a validated Space.
func parseAxes(axes []string) (dse.Space, error) {
	sp := dse.Space{Axes: make([]dse.Axis, len(axes))}
	for i, s := range axes {
		ax, err := dse.ParseAxisSpec(s)
		if err != nil {
			return dse.Space{}, err
		}
		sp.Axes[i] = ax
	}
	if err := sp.Validate(); err != nil {
		return dse.Space{}, err
	}
	return sp, nil
}

// chunkKey addresses one chunk's result blob in the shared store root. The
// sweep id is the hex fingerprint, so a blob can never be attributed to the
// wrong sweep even before its embedded fingerprint is checked.
func chunkKey(sweepID string, chunk int) string {
	return fmt.Sprintf("fleet|%s|chunk-%06d", sweepID, chunk)
}

// fragKey addresses one chunk's trace-fragment blob (obs.EncodeFragment)
// beside its result blob. Shared-store keys are hashed to paths and not
// enumerable, so the key must be derivable from (sweep, chunk) alone — the
// coordinator's assembly walks the chunk indices to find every fragment. A
// stolen chunk may be published twice by different workers; last writer wins,
// which loses at most one redundant fragment, never result data.
func fragKey(sweepID string, chunk int) string {
	return fmt.Sprintf("fleet|%s|frag-%06d", sweepID, chunk)
}

// Sweep is one distributed exploration the coordinator runs.
type Sweep struct {
	// Spec is the recipe workers rebuild the engine inputs from.
	Spec SweepSpec
	// Points is the enumerated design-point list (row-major over Spec.Axes
	// on the baseline latencies — what the workers will re-derive).
	Points []stacks.Latencies
	// Fingerprint is the sweep identity hash dse.SweepFingerprint computes
	// for the spec's engine; its hex form is the sweep id.
	Fingerprint []byte
	// ChunkSize is the points-per-lease granularity (0: ~32 chunks).
	ChunkSize int
	// Explicit marks a sweep whose Points are not Spec.Axes' row-major
	// enumeration — a guided search's probe round. The coordinator then
	// ships the point list to workers inside the sweep info instead of
	// having them re-derive it; identity safety is unchanged because the
	// fingerprint hashes every point value. Explicit sweeps are capped at
	// maxExplicitPoints so the info stays within the protocol body limit.
	Explicit bool
	// Setup is the coordinator's one-time engine preparation cost, recorded
	// into Report.Setup like dse.ExploreOptions.Setup.
	Setup time.Duration
	// Tracer, when non-nil, records the assemble span (and resume spans on
	// restart) of this sweep; TraceParent nests them under a caller span.
	Tracer      *obs.Tracer
	TraceParent uint64
}

// --- wire types of the /fleet/v1/ protocol -------------------------------

// sweepInfo answers GET /fleet/v1/sweep?id=: everything a worker needs to
// rebuild and verify one sweep.
type sweepInfo struct {
	ID        string    `json:"id"` // hex sweep fingerprint
	Spec      SweepSpec `json:"spec"`
	Points    int       `json:"points"`
	ChunkSize int       `json:"chunk_size"`
	Chunks    int       `json:"chunks"`
	// PointList is the explicit design-point list of an Explicit sweep
	// (a guided search's probe round); empty for enumerable sweeps, whose
	// workers re-derive the points from Spec.Axes.
	PointList []stacks.Latencies `json:"point_list,omitempty"`
}

// leaseRequest asks for work; Worker identifies the process for liveness
// and steal bookkeeping.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// leaseResponse grants a chunk lease ("lease"), asks the worker to retry
// shortly because every chunk is in flight ("wait"), or reports no active
// sweep at all ("idle").
type leaseResponse struct {
	Status     string `json:"status"`
	SweepID    string `json:"sweep_id,omitempty"`
	Lease      uint64 `json:"lease,omitempty"`
	Chunk      int    `json:"chunk,omitempty"`
	Lo         int    `json:"lo,omitempty"`
	Hi         int    `json:"hi,omitempty"`
	TTLMillis  int64  `json:"ttl_ms,omitempty"`
	WaitMillis int64  `json:"wait_ms,omitempty"`
	// Stolen marks a lease granted on a chunk another worker still holds —
	// straggler insurance; whichever completion arrives first wins.
	Stolen bool `json:"stolen,omitempty"`

	// TraceID and TraceParent propagate the sweep's trace context: TraceID is
	// the sweep id doubling as the trace identity, TraceParent the
	// coordinator's span ID for this chunk — the parent every worker-side
	// lease/evaluate/publish span nests under, so the merged timeline keeps
	// cross-process causality. Zero TraceParent means the coordinator is not
	// tracing this sweep and the worker publishes no fragment.
	TraceID     string `json:"trace_id,omitempty"`
	TraceParent uint64 `json:"trace_parent,omitempty"`
	// CoordClockNanos is the coordinator tracer's clock at grant time, in
	// nanoseconds. The worker brackets the lease round-trip with its own
	// tracer clock (T0, T1) and pairs them with this stamp into an
	// obs.ClockSync — the skew model the merge normalizes worker tracks with.
	// Zero means no coordinator clock was available (tracing off).
	CoordClockNanos int64 `json:"coord_clock_ns,omitempty"`
}

// heartbeatRequest renews a lease; expired or unknown leases answer 410.
type heartbeatRequest struct {
	Worker string `json:"worker"`
	Lease  uint64 `json:"lease"`
}

type heartbeatResponse struct {
	Status    string `json:"status"`
	TTLMillis int64  `json:"ttl_ms,omitempty"`
}

// completeRequest reports that the chunk's result blob is published in the
// shared root under chunkKey(SweepID, Chunk). The coordinator reads and
// verifies the blob before accepting; completion is valid even when the
// reporting lease has expired — the blob's content, not the lease, is the
// proof of work.
type completeRequest struct {
	Worker  string `json:"worker"`
	Lease   uint64 `json:"lease,omitempty"`
	SweepID string `json:"sweep_id"`
	Chunk   int    `json:"chunk"`

	// Per-chunk work summary, federated into the coordinator's
	// rpstacks_fleet_worker_* families so one scrape of the coordinator
	// describes every worker's throughput without scraping each worker.
	// Self-reported and advisory: it feeds metrics only, never results.
	Points         int     `json:"points,omitempty"`
	EvalSeconds    float64 `json:"eval_seconds,omitempty"`
	PublishSeconds float64 `json:"publish_seconds,omitempty"`
}

type completeResponse struct {
	Status string `json:"status"` // "ok" (first) or "duplicate"
}
