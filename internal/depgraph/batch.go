package depgraph

import (
	"fmt"

	"repro/internal/stacks"
)

// BatchEvaluator evaluates K design points per pass over the graph, the
// memory-bound-optimal form of the Fields-style reconstruction sweep: where
// Evaluator re-walks the whole CSR layout (edges, nodeStart, evalOrder) once
// per design point, BatchEvaluator walks it once per batch and updates K
// distance lanes at every node visit, amortizing the dominant cost — graph
// memory traffic — across the batch.
//
// Distances live in a struct-of-arrays layout, node-major: the K lanes of
// node n occupy dist[n*K : (n+1)*K], so the per-edge inner loop is a
// contiguous stream of int64 adds and compares. Per-edge latency math is
// hoisted out of that loop entirely: edges share few distinct Weight values,
// so construction assigns every edge a weight-class index, and each batch
// precomputes one Weight.Cycles row per class (classes × K int64s). The
// per-lane cycle count of an edge is therefore the exact Weight.Cycles value
// the scalar Evaluator computes — same float64 accumulation, same int64
// truncation — which is why batch results are bit-identical to per-point
// evaluation for every lane count, not merely close.
//
// A BatchEvaluator allocates O(nodes·K + edges) once; every batch after that
// is allocation-free. The distance buffer is the memory price of batching
// (nodes × K × 8 bytes), so callers with large graphs should size K
// accordingly. Like Evaluator, a BatchEvaluator only reads its Graph — any
// number may run concurrently over the same Graph — but a single
// BatchEvaluator is not goroutine-safe.
type BatchEvaluator struct {
	g       *Graph
	k       int
	dist    []int64  // node-major distance lanes: dist[int(n)*k+lane]
	wid     []int32  // per-edge weight-class index, parallel to g.edges (shared, read-only)
	classes []Weight // distinct edge weights of the graph (shared, read-only)
	wcyc    []int64  // per-batch class cycles: wcyc[class*k+lane]
}

// NewBatchEvaluator returns a K-lane evaluation scratch bound to g. Lane
// counts below one are raised to one (a one-lane batch evaluator is the
// scalar evaluator with extra steps; it exists so callers need not
// special-case K). The weight-class table is computed once per graph and
// shared, so additional evaluators — one per sweep worker — cost only their
// own distance lanes.
func (g *Graph) NewBatchEvaluator(k int) *BatchEvaluator {
	if k < 1 {
		k = 1
	}
	wid, classes := g.weightClasses()
	return &BatchEvaluator{
		g:       g,
		k:       k,
		dist:    make([]int64, g.NumNodes()*k),
		wid:     wid,
		classes: classes,
		wcyc:    make([]int64, len(classes)*k),
	}
}

// LongestPaths evaluates up to K design points in one pass over the graph
// and writes the longest-path length of point i into out[i]. Each out[i] is
// exactly Evaluator.LongestPath(&points[i]) — bit-identical, for any batch
// size including ragged final batches shorter than K. A batch longer than K
// panics: the caller owns batch slicing.
func (b *BatchEvaluator) LongestPaths(points []stacks.Latencies, out []int64) {
	m := len(points)
	if m == 0 {
		return
	}
	if m > b.k {
		panic(fmt.Sprintf("depgraph: batch of %d points exceeds evaluator width %d", m, b.k))
	}
	if len(out) < m {
		panic(fmt.Sprintf("depgraph: output buffer holds %d of %d batch results", len(out), m))
	}
	k := b.k
	// Per-batch precompute: one exact Weight.Cycles row per distinct edge
	// weight. Everything after this line is flat int64 arithmetic.
	for c := range b.classes {
		w := &b.classes[c]
		row := b.wcyc[c*k : c*k+m]
		for lane := range row {
			row[lane] = w.Cycles(&points[lane])
		}
	}
	g, dist := b.g, b.dist
	edges, wid, wcyc := g.edges, b.wid, b.wcyc
	for _, n := range g.evalOrder {
		s, cnt := g.nodeStart[n], g.nodeCnt[n]
		drow := dist[int(n)*k : int(n)*k+m]
		for lane := range drow {
			drow[lane] = 0
		}
		for ei := s; ei < s+cnt; ei++ {
			frow := dist[int(edges[ei].From)*k:]
			wrow := wcyc[int(wid[ei])*k:]
			frow, wrow = frow[:m], wrow[:m]
			for lane := range drow {
				if d := frow[lane] + wrow[lane]; d > drow[lane] {
					drow[lane] = d
				}
			}
		}
	}
	sink := int(g.Sink()) * k
	copy(out[:m], dist[sink:sink+m])
}
