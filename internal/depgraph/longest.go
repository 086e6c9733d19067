package depgraph

import (
	"repro/internal/stacks"
)

// Evaluator is a reusable evaluation scratch for one Graph: the per-node
// distance (and, lazily, predecessor) buffers that longest-path queries need.
// A fresh Evaluator allocates O(nodes) once; every evaluation after that is
// allocation-free, which is what makes dense design-space sweeps cheap.
//
// The Graph itself is never written during evaluation, so any number of
// Evaluators over the same Graph may run concurrently — one per sweep worker.
// A single Evaluator is NOT goroutine-safe: its buffers are the whole point.
//
// Dense sweeps that evaluate many design points against one graph should
// prefer BatchEvaluator, which walks the graph once per K points instead of
// once per point and produces bit-identical results; Evaluator remains the
// right tool for single evaluations and for CriticalPath, which has no
// batched form.
type Evaluator struct {
	g      *Graph
	dist   []int64
	parent []int32 // per-node index into g.edges; allocated on first CriticalPath
}

// NewEvaluator returns an evaluation scratch bound to g.
func (g *Graph) NewEvaluator() *Evaluator {
	return &Evaluator{g: g, dist: make([]int64, g.NumNodes())}
}

// LongestPath evaluates the graph under a latency assignment and returns the
// length in cycles of the longest path ending at the sink (the commit of the
// last µop), reusing the evaluator's distance buffer.
func (e *Evaluator) LongestPath(l *stacks.Latencies) int64 {
	e.fill(l)
	return e.dist[e.g.Sink()]
}

// fill recomputes the distance buffer for the latency assignment.
func (e *Evaluator) fill(l *stacks.Latencies) {
	g, dist := e.g, e.dist
	for _, n := range g.evalOrder {
		best := int64(0)
		for _, ed := range g.In(n) {
			if d := dist[ed.From] + ed.W.Cycles(l); d > best {
				best = d
			}
		}
		dist[n] = best
	}
}

// CriticalPath evaluates the graph under a latency assignment and returns
// both the longest-path length and the stall-event stack of one longest path
// (ties broken toward the first maximal in-edge). The stack is the CP1
// baseline of the paper: a single critical path translated into a CPI stack.
func (e *Evaluator) CriticalPath(l *stacks.Latencies) (int64, stacks.Stack) {
	g, dist := e.g, e.dist
	if e.parent == nil {
		e.parent = make([]int32, g.NumNodes())
	}
	parent := e.parent
	for _, id := range g.evalOrder {
		best := int64(0)
		bestEdge := int32(-1)
		s := g.nodeStart[id]
		for k, ed := range g.In(id) {
			if d := dist[ed.From] + ed.W.Cycles(l); d > best || bestEdge < 0 {
				best = d
				bestEdge = s + int32(k)
			}
		}
		dist[id] = best
		parent[id] = bestEdge
	}
	var st stacks.Stack
	for node := g.Sink(); ; {
		pe := parent[node]
		if pe < 0 {
			break
		}
		ed := &g.edges[pe]
		for _, p := range ed.W {
			if p.N != 0 {
				st.Add(p.Ev, float64(p.N))
			}
		}
		node = ed.From
	}
	return dist[g.Sink()], st
}

// LongestPath evaluates the graph under a latency assignment and returns the
// length in cycles of the longest path ending at the sink (the commit of the
// last µop). Re-running this per design point is the Fields-style graph
// reconstruction method the paper compares against: O(edges) per point.
//
// This convenience form builds a throwaway Evaluator, allocating one
// O(nodes) distance buffer per call. Sweeps that evaluate many design points
// should reuse a NewEvaluator (zero allocations per point) or, denser still,
// a NewBatchEvaluator (one graph walk per K points).
func (g *Graph) LongestPath(l *stacks.Latencies) int64 {
	return g.NewEvaluator().LongestPath(l)
}

// CriticalPath evaluates the graph under a latency assignment and returns
// both the longest-path length and the stall-event stack of one longest path.
// See Evaluator.CriticalPath; this convenience form builds a throwaway
// Evaluator, allocating its distance and parent buffers (two O(nodes)
// slices) per call.
func (g *Graph) CriticalPath(l *stacks.Latencies) (int64, stacks.Stack) {
	return g.NewEvaluator().CriticalPath(l)
}
