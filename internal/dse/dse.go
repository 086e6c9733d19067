// Package dse drives latency-domain design space exploration with the three
// competing engines the paper times against each other (Section V-C): full
// re-simulation per design point, Fields-style dependence-graph
// reconstruction per point, and RpStacks (one analysis, constant-time
// prediction per point).
package dse

import (
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/stacks"
)

// Axis is one latency-domain dimension: the candidate cycle costs of one
// event kind.
type Axis struct {
	Event  stacks.Event
	Values []float64
}

// Space is a full-factorial latency design space around a baseline.
type Space struct {
	Axes []Axis
}

// Size returns the number of design points, saturating at math.MaxInt when
// the product overflows (SizeSaturating distinguishes the two; SizeWithin
// enforces a cap). It can therefore never wrap negative on huge axis lists.
func (s *Space) Size() int {
	n, _ := s.SizeSaturating()
	return n
}

// Point materializes design point idx (row-major over the axes) on top of
// the base latency assignment.
func (s *Space) Point(base stacks.Latencies, idx int) stacks.Latencies {
	l := base
	for _, a := range s.Axes {
		n := len(a.Values)
		l[a.Event] = a.Values[idx%n]
		idx /= n
	}
	return l
}

// Enumerate materializes every design point. It panics on a space whose
// size overflows int — such a space cannot be materialized at all; callers
// facing user-supplied axes should gate on SizeWithin (or use a search
// mode, which never materializes the grid).
func (s *Space) Enumerate(base stacks.Latencies) []stacks.Latencies {
	n, exact := s.SizeSaturating()
	if !exact {
		panic("dse: design space too large to materialize; use a search mode")
	}
	out := make([]stacks.Latencies, n)
	for i := range out {
		out[i] = s.Point(base, i)
	}
	return out
}

// Validate checks the space is well-formed: at least one axis, every axis a
// latency-domain knob with at least one non-negative value, and no event
// named by two axes (a duplicate would silently shadow the earlier axis in
// Point's row-major walk).
func (s *Space) Validate() error {
	if len(s.Axes) == 0 {
		return fmt.Errorf("dse: empty design space")
	}
	var seen [stacks.NumEvents]bool
	for _, a := range s.Axes {
		if !a.Event.Optimizable() {
			return fmt.Errorf("dse: event %s is not a latency-domain knob", a.Event)
		}
		if seen[a.Event] {
			return fmt.Errorf("dse: duplicate axis for event %s", a.Event)
		}
		seen[a.Event] = true
		if len(a.Values) == 0 {
			return fmt.Errorf("dse: axis %s has no values", a.Event)
		}
		for _, v := range a.Values {
			if v < 0 {
				return fmt.Errorf("dse: axis %s has negative latency %g", a.Event, v)
			}
		}
	}
	return nil
}

// Result is the predicted (or measured) cycle count of one design point.
type Result struct {
	Lat    stacks.Latencies
	Cycles float64
}

// WorkerTiming is one sweep worker's share of the per-point loop.
type WorkerTiming struct {
	Worker int
	Points int
	Busy   time.Duration
}

// Report carries the results of one exploration plus its wall-clock cost
// split into one-time setup and the per-point loop.
type Report struct {
	Method  string
	Results []Result
	// Setup is the one-time cost of preparing the engine (simulate, analyze,
	// build the graph), recorded by Explore from ExploreOptions.Setup. It
	// is what Total and Crossover amortize.
	Setup time.Duration
	// PerPoint is the effective per-design-point cost: sweep wall-clock
	// divided by the point count. Under a parallel sweep it already reflects
	// the worker speedup, so Total, Crossover and the Figure 2b/13 series
	// stay meaningful.
	PerPoint time.Duration
	// Wall is the aggregate wall-clock of the whole per-point loop.
	Wall time.Duration
	// Workers holds per-worker busy time and point counts (one entry per
	// worker that ran; a serial sweep has exactly one).
	Workers []WorkerTiming
	// Resumed is the number of design points restored from a checkpoint
	// instead of being evaluated (zero without ExploreOptions.Checkpoint).
	// PerPoint still divides the loop wall-clock by the full point count, so
	// a heavily resumed sweep reports an optimistic per-point cost.
	Resumed int
	// Fingerprint is the sweep's identity hash — SHA-256 over the engine,
	// its prepared inputs and the full point list, the same binding the
	// checkpoint layer uses. Set on every checkpointed sweep and on sweeps
	// run with ExploreOptions.NeedFingerprint; nil otherwise. It seeds the
	// audit sampler, which is why the audited point set is stable across
	// resumes: the hash covers the sweep's inputs, not its schedule.
	Fingerprint []byte
	// Batch is the lane width the sweep actually evaluated with: how many
	// design points each pass over the engine's model covered. 1 means
	// scalar lanes wrapping the engine's per-point evaluator (always, for
	// the sim engine); widths above 1 record the resolved
	// ExploreOptions.BatchSize, autotuned when that was zero. Purely
	// informational — results are identical at every width.
	Batch int
}

// Total returns the wall-clock cost of exploring n points with this
// method's measured timings.
func (r *Report) Total(n int) time.Duration {
	return r.Setup + time.Duration(n)*r.PerPoint
}

// finish stamps the loop timing fields of a completed sweep.
func (r *Report) finish(wall time.Duration, workers []WorkerTiming) {
	r.Wall = wall
	r.Workers = workers
	if n := len(r.Results); n > 0 {
		r.PerPoint = wall / time.Duration(n)
	}
}

// Explore evaluates every design point through the engine, sharding the
// point list over opts.Parallelism workers. Each worker owns one lane of the
// resolved width (ExploreOptions.BatchSize, autotuned when zero; always 1
// for the sim engine) and walks its chunks width points per model pass; the
// engine's inputs are only read. Results are written by point index and are
// bit-identical at every worker count and lane width to evaluating each
// point alone through the engine's scalar evaluator. Errors are an
// engine's evaluation error, opts.Context's cancellation error (checked
// between chunks) and checkpoint I/O.
func Explore(e *Engine, points []stacks.Latencies, opts ExploreOptions) (*Report, error) {
	rep := &Report{Method: e.method, Results: make([]Result, len(points)), Setup: opts.Setup}
	rep.Batch = e.sweepWidth(opts.BatchSize, points)
	if err := runPoints(e, rep, points, opts); err != nil {
		return nil, err
	}
	return rep, nil
}

// runPoints is the sweep driver behind Explore. Without a checkpoint it runs
// the plain chunked sweep. With one, it fingerprints the sweep (method + the
// engine input streamed by its salt + the point list), restores persisted
// chunks, evaluates only the pending points, and publishes each completed
// chunk atomically — crash-safe at chunk granularity. The lane width
// (rep.Batch) changes how a chunk's points are walked, never which points
// land in which chunk, so checkpoint files and fingerprints are identical
// across widths.
func runPoints(e *Engine, rep *Report, points []stacks.Latencies, opts ExploreOptions) error {
	// The sweep root wraps everything below — checkpoint restore included —
	// so an exported trace accounts for (at least) the whole Report.Wall.
	// Chunk spans attach under it via TraceParent; all of this is inert when
	// opts.Tracer is nil.
	root := opts.Tracer.StartChild(opts.TraceParent, obs.CatDSE, obs.NameSweep)
	root.SetDetail(rep.Method)
	root.SetArg(obs.ArgPoints, int64(len(points)))
	defer root.End()
	opts.TraceParent = root.ID()

	results, width := rep.Results, rep.Batch
	if opts.ChunkSize == 0 {
		// Align auto-sized chunks to the lane width: a chunk is the unit one
		// worker claims, so an auto chunk narrower than the batch would
		// silently cap every model pass below the resolved width. Explicit
		// chunk sizes are respected — cancellation granularity is the
		// caller's call.
		w := opts.workerCount(len(points))
		c := opts.chunkSize(len(points), w)
		if rem := c % width; rem != 0 {
			c += width - rem
		}
		opts.ChunkSize = c
	}
	// Per-worker state, allocated once: the lane, its output buffer, and (for
	// the checkpoint path, whose chunks list scattered indices) a gather
	// buffer of latency columns. O(workers·width) beside the engine's own
	// per-lane scratch.
	nw := opts.workerCount(len(points))
	lanes := make([]lane, nw)
	outs := make([][]float64, nw)
	var gathers [][]stacks.Latencies
	if opts.Checkpoint != nil {
		gathers = make([][]stacks.Latencies, nw)
	}
	for i := range lanes {
		lanes[i] = e.lanes(width)
		outs[i] = make([]float64, width)
		if gathers != nil {
			gathers[i] = make([]stacks.Latencies, width)
		}
	}
	// evalChunk is the one lane loop: it evaluates the design points at
	// positions [lo, hi) of idxs, width at a time. A nil idxs is the identity
	// — contiguous points, sliced in place with no gather copy (the hot,
	// uncheckpointed path); otherwise each batch gathers its latency columns
	// first and scatters its results after.
	evalChunk := func(worker int, idxs []int, lo, hi int) error {
		ln, out := lanes[worker], outs[worker]
		for k := lo; k < hi; k += width {
			m := min(width, hi-k) // ragged final batch of the chunk
			var lats []stacks.Latencies
			if idxs == nil {
				lats = points[k : k+m]
			} else {
				lats = gathers[worker][:m]
				for t := range lats {
					lats[t] = points[idxs[k+t]]
				}
			}
			if err := ln(lats, out[:m]); err != nil {
				return err
			}
			for t, c := range out[:m] {
				i := k + t
				if idxs != nil {
					i = idxs[i]
				}
				results[i] = Result{Lat: points[i], Cycles: c}
			}
		}
		return nil
	}

	if opts.Checkpoint == nil {
		if opts.NeedFingerprint {
			fp, err := sweepFingerprint(e.method, e.salt, points)
			if err != nil {
				return err
			}
			rep.Fingerprint = fp[:]
		}
		wall, workers, err := sweep(len(points), opts, func(worker, lo, hi int) error {
			return evalChunk(worker, nil, lo, hi)
		})
		if err != nil {
			return err
		}
		rep.finish(wall, workers)
		return nil
	}

	dir := opts.Checkpoint.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dse: creating checkpoint dir: %w", err)
	}
	fp, err := sweepFingerprint(e.method, e.salt, points)
	if err != nil {
		return err
	}
	rep.Fingerprint = fp[:]
	done := make([]bool, len(points))
	restored, err := loadChunks(dir, fp, results, done, opts.Tracer, opts.TraceParent)
	if err != nil {
		return err
	}
	rep.Resumed = restored
	pending := make([]int, 0, len(points)-restored)
	for i, d := range done {
		if d {
			results[i].Lat = points[i]
		} else {
			pending = append(pending, i)
		}
	}
	// The sweep walks pending-index space; chunk files are disjoint across
	// resumes because a restored point never becomes pending again.
	wall, workers, err := sweep(len(pending), opts, func(worker, lo, hi int) error {
		if lo == hi {
			return nil // fully resumed sweep: nothing to evaluate or publish
		}
		if err := evalChunk(worker, pending, lo, hi); err != nil {
			return err
		}
		return saveChunk(dir, fp, pending[lo:hi], results)
	})
	if err != nil {
		return err
	}
	rep.finish(wall, workers)
	if opts.Checkpoint.RemoveOnSuccess {
		// The Report is complete; the chunk files have nothing left to
		// protect. Errors above keep them for the next resume.
		removeChunks(dir)
	}
	return nil
}

// Crossover returns the design-point count beyond which method a (with
// setup cost) beats method b, or -1 if it never does within limit.
func Crossover(a, b *Report, limit int) int {
	for n := 1; n <= limit; n++ {
		if a.Total(n) < b.Total(n) {
			return n
		}
	}
	return -1
}

// BestUnder returns the results meeting a target cycle budget, the design
// points "meeting the design goal" of the paper's Figure 6 scenario.
func BestUnder(results []Result, cycleBudget float64) []Result {
	var out []Result
	for _, r := range results {
		if r.Cycles <= cycleBudget {
			out = append(out, r)
		}
	}
	return out
}
