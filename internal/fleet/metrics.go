package fleet

import (
	"fmt"

	"repro/internal/obs/prom"
)

// metrics.go — the coordinator's rpstacks_fleet_* families, registered on
// the caller's registry (rpserved's, so one /metrics scrape covers the
// fleet) or a private one. Counters the lease path owns are updated in
// place; worker liveness, active-sweep and active-lease counts are pulled at
// scrape time from the coordinator's own state, the registry's
// no-double-accounting convention.

// assemblyBuckets resolve report assembly, which is dominated by reading
// the chunk blobs back: sub-millisecond for small sweeps, seconds when a
// million-point report streams from disk.
var assemblyBuckets = []float64{0.0001, 0.001, 0.01, 0.1, 1, 10}

// completionResults are the completed-chunks counter labels, in render
// order: "first" is the accepted completion, "duplicate" the idempotent
// re-completion of an already-done chunk (work-stealing's second finisher).
var completionResults = []string{"first", "duplicate"}

// leaseWaitBuckets resolve how long a chunk sits published-but-unleased —
// the fleet's queue depth expressed as time. Sub-millisecond when workers
// outnumber chunks, whole lease TTLs when a worker died and its chunk waits
// for expiry before re-granting.
var leaseWaitBuckets = []float64{0.001, 0.01, 0.1, 1, 5, 30, 120}

type coordMetrics struct {
	leased    *prom.Counter
	completed *prom.CounterVec
	expired   *prom.Counter
	stolen    *prom.Counter
	assembly  *prom.Histogram
	leaseWait *prom.Histogram

	// fragDropped counts trace fragments discarded at assembly — damaged,
	// truncated or foreign blobs. A dropped fragment degrades the merged
	// timeline and nothing else, which is exactly why it needs a counter:
	// nothing louder will ever signal it.
	fragDropped *prom.Counter

	// Federated per-worker families, fed from the summaries workers attach to
	// their completion calls: one scrape of the coordinator describes the
	// whole fleet's throughput without reaching any worker's own /metrics.
	workerChunks  *prom.CounterVec
	workerPoints  *prom.CounterVec
	workerEval    *prom.CounterVec
	workerPublish *prom.CounterVec
}

func newCoordMetrics(reg *prom.Registry, c *Coordinator) *coordMetrics {
	m := &coordMetrics{
		leased: reg.Counter("rpstacks_fleet_chunks_leased_total",
			"Chunk leases granted to workers, steals included."),
		completed: reg.CounterVec("rpstacks_fleet_chunks_completed_total",
			"Chunk completions by result.", "result"),
		expired: reg.Counter("rpstacks_fleet_leases_expired_total",
			"Leases that missed their heartbeat TTL and were revoked."),
		stolen: reg.Counter("rpstacks_fleet_chunks_stolen_total",
			"Straggler chunks re-leased to a second worker while still held."),
		assembly: reg.Histogram("rpstacks_fleet_assembly_duration_seconds",
			"Wall-clock of assembling a finished sweep's Report from its chunk blobs.",
			assemblyBuckets),
		leaseWait: reg.Histogram("rpstacks_fleet_lease_wait_seconds",
			"Time a chunk spent published-but-unleased before its first grant (re-grants after expiry included).",
			leaseWaitBuckets),
		fragDropped: reg.Counter("rpstacks_fleet_trace_fragments_dropped_total",
			"Trace fragments discarded at assembly: damaged, truncated or foreign blobs."),
		workerChunks: reg.CounterVec("rpstacks_fleet_worker_chunks_total",
			"Chunk completions reported per worker, duplicates included.", "worker"),
		workerPoints: reg.CounterVec("rpstacks_fleet_worker_points_total",
			"Design points evaluated per worker, as self-reported on completion.", "worker"),
		workerEval: reg.CounterVec("rpstacks_fleet_worker_evaluate_seconds_total",
			"Evaluate wall-clock per worker, as self-reported on completion.", "worker"),
		workerPublish: reg.CounterVec("rpstacks_fleet_worker_publish_seconds_total",
			"Publish wall-clock per worker, as self-reported on completion.", "worker"),
	}
	for _, r := range completionResults {
		m.completed.With(r)
	}
	reg.Collect("rpstacks_fleet_workers_live",
		"Workers seen by the coordinator within two lease TTLs.", "gauge",
		func(emit func(string, float64)) { emit("", float64(c.liveWorkers())) })
	reg.Collect("rpstacks_fleet_worker_live",
		"Per-worker liveness: 1 while the worker was seen within two lease TTLs.", "gauge",
		func(emit func(string, float64)) {
			for _, name := range c.liveWorkerNames() {
				emit(fmt.Sprintf("{worker=%q}", name), 1)
			}
		})
	reg.Collect("rpstacks_fleet_sweeps_active",
		"Sweeps currently registered on the coordinator.", "gauge",
		func(emit func(string, float64)) { emit("", float64(c.activeSweeps())) })
	reg.Collect("rpstacks_fleet_leases_active",
		"Chunk leases currently held: granted, not completed, within their TTL.", "gauge",
		func(emit func(string, float64)) { emit("", float64(c.activeLeases())) })
	return m
}
