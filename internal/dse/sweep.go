package dse

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ExploreOptions configures how a sweep engine walks the design-point list.
// The zero value is a serial sweep, identical to the engines' historical
// behaviour.
type ExploreOptions struct {
	// Parallelism is the number of sweep workers. Zero or one runs the
	// per-point loop serially. Results are written into a pre-sized slice by
	// design-point index, so output ordering is deterministic and identical
	// to the serial sweep regardless of the worker count.
	Parallelism int
	// ChunkSize is the number of consecutive design points one work unit
	// claims. Zero picks a size that gives every worker several chunks (for
	// load balance) while keeping claim traffic negligible.
	ChunkSize int
	// Setup is the one-time engine preparation cost — simulate, analyze,
	// build the graph — which the engine records in Report.Setup so that
	// Report.Total and Crossover need no hand-patching by callers.
	Setup time.Duration
	// Context, when non-nil, cancels the sweep between work units: every
	// worker (including the serial one) checks it before claiming its next
	// chunk and the sweep returns the context's error. Cancellation
	// granularity is therefore one chunk — callers wanting prompt
	// cancellation of slow per-point engines should pick a small ChunkSize.
	// A nil Context never cancels and keeps the serial fast path free of
	// per-chunk checks.
	Context context.Context
	// Checkpoint, when non-nil, makes the sweep crash-safe: every completed
	// chunk of design points is atomically persisted under Checkpoint.Dir,
	// and a sweep started over a directory holding chunks restores them —
	// skipping their points entirely — before evaluating the rest. The
	// resumed sweep's Results are identical to an uninterrupted run's; a
	// directory written by a different sweep (engine, inputs or point list)
	// is rejected with an error rather than mixed in. Nil keeps the engines'
	// historical zero-IO behavior.
	Checkpoint *Checkpoint
	// Tracer, when non-nil, records the sweep into span records: one sweep
	// root per exploration, one chunk span per claimed work unit (TID = the
	// worker index, Arg = the chunk's point count), one resume span per
	// restored checkpoint chunk. A nil Tracer adds nothing to the hot loop —
	// not even an allocation, which TestTracingDisabledChunkEvalAllocFree
	// pins down.
	Tracer *obs.Tracer
	// TraceParent is the span ID the sweep root attaches under, letting a
	// caller (the rpserved job runner) nest the whole sweep inside its own
	// trace. Zero roots the sweep at top level.
	TraceParent uint64
	// NeedFingerprint asks the sweep to compute and publish its identity
	// hash in Report.Fingerprint even without a checkpoint, so a shadow
	// auditor (internal/audit) can derive its deterministic point sample.
	// Checkpointed sweeps compute the fingerprint anyway and always
	// publish it.
	NeedFingerprint bool
	// BatchSize is the number of design points a batch-capable engine
	// (graph, rpstacks) evaluates per pass over its model — the lane count
	// of depgraph.BatchEvaluator / core.BatchPredictor. 1 runs lanes that
	// wrap the engine's scalar per-point evaluator; 0, the default, picks a width by a small autotune over
	// candidate lane widths (see pickBatchWidth). Batching is an execution
	// detail, not an input: results, sweep fingerprints and checkpoint
	// chunks are bit-identical across every BatchSize, so a checkpoint
	// written at one width resumes cleanly at any other. The sim engine has
	// no batched form and ignores this field.
	BatchSize int
}

// workerCount returns the number of workers a sweep over n points will use.
func (o *ExploreOptions) workerCount(n int) int {
	w := o.Parallelism
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1 // n == 0 still needs one slot for per-worker state
	}
	return w
}

// chunkSize returns the points-per-claim granularity for a sweep over n
// points with w workers.
func (o *ExploreOptions) chunkSize(n, w int) int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	// Aim for ~8 chunks per worker so stragglers rebalance, with a floor of
	// one point.
	c := n / (w * 8)
	if c < 1 {
		c = 1
	}
	return c
}

// sweep partitions [0, n) into chunks of consecutive indices and runs eval
// over them on the configured worker count. eval(worker, lo, hi) must write
// its outputs by index; chunk-to-worker assignment is dynamic (atomic claim),
// which is safe precisely because output slots are disjoint. It returns the
// loop wall-clock, the per-worker timings, and the first error any worker
// hit — an eval failure or the configured Context's cancellation error —
// with the remaining chunks abandoned once an error is recorded.
func sweep(n int, opts ExploreOptions, eval func(worker, lo, hi int) error) (time.Duration, []WorkerTiming, error) {
	ctx := opts.Context
	workers := opts.workerCount(n)
	chunk := opts.chunkSize(n, workers)
	if tr := opts.Tracer; tr != nil {
		inner, parent := eval, opts.TraceParent
		eval = func(worker, lo, hi int) error {
			if hi == lo { // fully-resumed sweep: nothing evaluated, no span
				return inner(worker, lo, hi)
			}
			sp := tr.StartChild(parent, obs.CatDSE, obs.NameChunk)
			sp.SetTID(worker)
			sp.SetArg(obs.ArgPoints, int64(hi-lo))
			err := inner(worker, lo, hi)
			sp.End()
			return err
		}
	}
	start := time.Now()
	if workers == 1 {
		if ctx == nil {
			err := eval(0, 0, n)
			wall := time.Since(start)
			return wall, []WorkerTiming{{Worker: 0, Points: n, Busy: wall}}, err
		}
		// Cancellable serial sweep: walk the same chunks a one-worker pool
		// would, checking the context between them.
		t := WorkerTiming{Worker: 0}
		var err error
		for lo := 0; lo < n; lo += chunk {
			if err = ctx.Err(); err != nil {
				break
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if err = eval(0, lo, hi); err != nil {
				break
			}
			t.Points += hi - lo
		}
		wall := time.Since(start)
		t.Busy = wall
		return wall, []WorkerTiming{t}, err
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		failed.Store(true)
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	timings := make([]WorkerTiming, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			t := &timings[worker]
			t.Worker = worker
			busyStart := time.Now()
			for !failed.Load() {
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						fail(err)
						break
					}
				}
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					break
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				if err := eval(worker, lo, hi); err != nil {
					fail(err)
					break
				}
				t.Points += hi - lo
			}
			t.Busy = time.Since(busyStart)
		}(w)
	}
	wg.Wait()
	return time.Since(start), timings, firstErr
}
