package dse

import "time"

// batch.go — the lane-width autotuner behind ExploreOptions.BatchSize == 0.
// The batch-capable engines (graph, rpstacks) evaluate K design points per
// pass over their model instead of re-walking it per point; the width K is
// an execution detail that never changes results.

// batchWidthCandidates are the lane widths the autotuner times when
// ExploreOptions.BatchSize is zero. They bracket the widths that win on
// current hardware: too narrow re-pays graph traffic, too wide spills the
// per-node lane rows out of registers and the distance buffer out of cache.
var batchWidthCandidates = [...]int{4, 8, 16, 32}

// defaultBatchWidth is the lane width used when a sweep is too small to
// amortize probing (or probing is impossible, e.g. zero points). Sixteen
// int64 lanes are two cache lines per node row — wide enough to amortize
// graph traffic, small enough that the distance buffer of a segment-sized
// graph stays cache-resident.
const defaultBatchWidth = 16

// autotuneMinPoints is the sweep size below which probing every candidate
// width would cost a noticeable share of the sweep itself; smaller sweeps
// take defaultBatchWidth directly.
const autotuneMinPoints = 256

// pickBatchWidth resolves ExploreOptions.BatchSize for a batch-capable
// engine sweeping n points. A caller-requested width (requested > 0) is
// honored, clamped only to the point count — an explicit width overrides
// the autotuner's cache heuristics. requested == 0 autotunes: probe(w)
// evaluates one w-sized batch of real design points through a throwaway
// evaluator and returns its wall time; the width with the lowest per-point
// time wins, capped at maxWidth (the engine's memory ceiling; 0 means
// uncapped). Probing re-evaluates a prefix of the actual point list and
// discards the output, so it cannot change results — batching is an
// execution detail.
func pickBatchWidth(requested, n, maxWidth int, probe func(width int) time.Duration) int {
	clamp := func(w int) int {
		if w > n {
			w = n
		}
		if w < 1 {
			w = 1
		}
		return w
	}
	if requested > 0 {
		return clamp(requested)
	}
	def := defaultBatchWidth
	if maxWidth > 0 && def > maxWidth {
		def = maxWidth
	}
	if n < autotuneMinPoints || probe == nil {
		return clamp(def)
	}
	bestW := 0
	var bestPer float64
	for _, w := range batchWidthCandidates {
		if w > n || (maxWidth > 0 && w > maxWidth) {
			break
		}
		// Two reps, keep the faster: the first touches cold buffers.
		d := probe(w)
		if d2 := probe(w); d2 < d {
			d = d2
		}
		per := float64(d) / float64(w)
		if bestW == 0 || per < bestPer {
			bestW, bestPer = w, per
		}
	}
	if bestW == 0 {
		return clamp(def)
	}
	return bestW
}
