// Package depgraph builds the dependence-graph model of Table I from a
// dynamic trace and evaluates it: each µop contributes a column of pipeline
// nodes, each edge carries an (event, count) weight vector, and the longest
// path from the first fetch to the last commit reproduces the simulated
// cycle count for the traced latency configuration — and predicts it for any
// other latency configuration, which is the Fields-style graph
// reconstruction comparator of the paper.
//
// The ITLB, I-cache, AR1, AR2, DTLB and RC stages of the paper's 10-node
// model are folded into edge weights of their neighbouring nodes (they form
// linear chains), leaving eight explicit nodes per µop; the constraint set
// is otherwise the paper's, including the new (+) rows of Table I. One
// documented deviation: stores issue on address readiness alone (data merges
// at retirement), matching the simulator, so Table I's data-dependency row
// applies to register consumers and store addresses but not store data.
package depgraph

import (
	"fmt"
	"sync"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stacks"
	"repro/internal/trace"
)

// Stage enumerates the explicit per-µop nodes.
type Stage uint8

const (
	NF  Stage = iota // fetch start (line access request)
	NIC              // instruction line available (ITLB folded in)
	NN               // renamed, ROB entry allocated
	ND               // issue-queue entry allocated
	NR               // operands ready (address pipeline folded in for mem ops)
	NE               // execution begins
	NP               // execution complete
	NC               // committed (ready-to-commit folded in)

	NumStages // not a valid stage
)

var stageNames = [NumStages]string{"F", "I$", "N", "D", "R", "E", "P", "C"}

// String returns the node-stage label used in the paper's figures.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// NodeID addresses one node: µop index (relative to the graph's window)
// times NumStages plus the stage.
type NodeID int32

// EvPair is one component of an edge weight: count occurrences of an event.
type EvPair struct {
	Ev stacks.Event
	N  uint8
}

// Weight is the event decomposition of an edge; unused slots have N == 0.
// Under a latency assignment the edge costs Σ N·lat(Ev).
type Weight [3]EvPair

// Cycles evaluates the weight under a latency assignment.
func (w *Weight) Cycles(l *stacks.Latencies) int64 {
	var c float64
	for _, p := range w {
		if p.N != 0 {
			c += float64(p.N) * l[p.Ev]
		}
	}
	return int64(c)
}

// add accumulates n occurrences of ev into the weight.
func (w *Weight) add(ev stacks.Event, n uint8) {
	if n == 0 {
		return
	}
	for i := range w {
		if w[i].N != 0 && w[i].Ev == ev {
			w[i].N += n
			return
		}
	}
	for i := range w {
		if w[i].N == 0 {
			w[i] = EvPair{ev, n}
			return
		}
	}
	panic("depgraph: edge weight exceeds three distinct events")
}

// Edge is one in-edge of a node.
type Edge struct {
	From NodeID
	W    Weight
}

// Graph is the dependence graph of one trace window. In-edges are stored in
// compressed form: the in-edges of node n occupy edges[nodeStart[n] : nodeStart[n]+nodeCnt[n]].
// evalOrder lists all nodes in a topological order (commit nodes of a
// macro-op follow the whole macro-op, because the paper's µop-dependency
// constraint makes a macro's first commit wait on every µop of the macro).
type Graph struct {
	Lo, Hi    int // µop window [Lo, Hi) of the underlying trace
	recs      []trace.Record
	edges     []Edge
	nodeStart []int32
	nodeCnt   []int32
	evalOrder []NodeID

	// Weight-class table, computed lazily by weightClasses for batched
	// evaluation: wid[i] indexes edges[i].W within wclasses. A property of
	// the edge set, shared by every BatchEvaluator over this graph.
	wonce    sync.Once
	wid      []int32
	wclasses []Weight
}

// weightClasses deduplicates the edge weights once per graph: edges share few
// distinct Weight values (pipeline width, cache levels and port counts bound
// them), so batched evaluators precompute per-batch latency rows per class
// instead of per edge. Safe for concurrent callers; the graph stays
// logically read-only.
func (g *Graph) weightClasses() ([]int32, []Weight) {
	g.wonce.Do(func() {
		g.wid = make([]int32, len(g.edges))
		seen := make(map[Weight]int32, 64)
		for i := range g.edges {
			w := g.edges[i].W
			id, ok := seen[w]
			if !ok {
				id = int32(len(g.wclasses))
				g.wclasses = append(g.wclasses, w)
				seen[w] = id
			}
			g.wid[i] = id
		}
	})
	return g.wid, g.wclasses
}

// NumMicroOps returns the window length.
func (g *Graph) NumMicroOps() int { return g.Hi - g.Lo }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.NumMicroOps() * int(NumStages) }

// Node returns the NodeID for the µop at trace index i (Lo ≤ i < Hi).
func (g *Graph) Node(i int, s Stage) NodeID {
	return NodeID((i-g.Lo)*int(NumStages) + int(s))
}

// In returns the in-edges of node n.
func (g *Graph) In(n NodeID) []Edge {
	s := g.nodeStart[n]
	return g.edges[s : s+g.nodeCnt[n]]
}

// EvalOrder returns the nodes in dependency-respecting order.
func (g *Graph) EvalOrder() []NodeID { return g.evalOrder }

// Sink returns the final node (commit of the last µop).
func (g *Graph) Sink() NodeID { return g.Node(g.Hi-1, NC) }

// storeWindow bounds how many preceding stores receive an explicit
// address-dependency edge to each load; older stores are ordered through
// transitive structural edges in practice.
const storeWindow = 6

// Build constructs the dependence graph for the trace window [lo, hi). The
// window should start at a macro-op boundary (SoM); Build returns an error
// otherwise, because commit atomicity would reference µops outside the
// window.
func Build(tr *trace.Trace, st *config.Structure, lo, hi int) (*Graph, error) {
	if lo < 0 || hi > len(tr.Records) || lo >= hi {
		return nil, fmt.Errorf("depgraph: invalid window [%d, %d) of %d records", lo, hi, len(tr.Records))
	}
	if !tr.Records[lo].SoM {
		return nil, fmt.Errorf("depgraph: window must start at a macro-op boundary (µop %d)", lo)
	}
	g := &Graph{Lo: lo, Hi: hi, recs: tr.Records}
	n := g.NumNodes()
	g.nodeStart = make([]int32, n)
	g.nodeCnt = make([]int32, n)
	g.evalOrder = make([]NodeID, 0, n)
	g.edges = make([]Edge, 0, n*2)

	// Edge emission happens per target node, in evaluation order, so the
	// compressed representation is filled in a single pass.
	var pendingC []int // µops of the current macro awaiting commit nodes
	var recentStores []int

	beginNode := func(id NodeID) {
		g.nodeStart[id] = int32(len(g.edges))
		g.evalOrder = append(g.evalOrder, id)
	}
	endNode := func(id NodeID) {
		g.nodeCnt[id] = int32(len(g.edges)) - g.nodeStart[id]
	}
	addEdge := func(from NodeID, w Weight) {
		g.edges = append(g.edges, Edge{From: from, W: w})
	}
	// inWindow guards cross-µop references: edges from µops before the
	// window are dropped (the segmentation cut of Section III-C).
	inWindow := func(i int64) bool { return i >= int64(lo) }

	base := func(n uint8) Weight {
		var w Weight
		w.add(stacks.Base, n)
		return w
	}

	flushCommits := func() {
		if len(pendingC) == 0 {
			return
		}
		last := pendingC[len(pendingC)-1]
		for _, i := range pendingC {
			r := &g.recs[i]
			id := g.Node(i, NC)
			beginNode(id)
			// Commit one cycle after completion.
			addEdge(g.Node(i, NP), base(1))
			// In-order commit.
			if i-1 >= lo {
				addEdge(g.Node(i-1, NC), base(0))
			}
			// Finite commit width.
			if j := i - st.CommitWidth; j >= lo {
				addEdge(g.Node(j, NC), base(1))
			}
			// µop dependency: the macro's first commit waits for every µop
			// of the macro to complete.
			if r.SoM {
				for j := i + 1; j <= last; j++ {
					addEdge(g.Node(j, NP), base(1))
				}
			}
			endNode(id)
		}
		pendingC = pendingC[:0]
	}

	for i := lo; i < hi; i++ {
		r := &g.recs[i]

		// --- F: fetch start -------------------------------------------
		id := g.Node(i, NF)
		beginNode(id)
		if i-1 >= lo {
			// In-order fetch.
			addEdge(g.Node(i-1, NIC), base(0))
			// Control dependency: redirect after a mispredicted branch.
			if g.recs[i-1].Mispredicted {
				var w Weight
				w.add(stacks.Branch, 1)
				addEdge(g.Node(i-1, NP), w)
			}
		}
		// Finite fetch bandwidth.
		if j := i - st.FetchWidth; j >= lo {
			addEdge(g.Node(j, NIC), base(1))
		}
		// Finite fetch buffer.
		if j := i - st.FetchBufSize; j >= lo {
			addEdge(g.Node(j, NN), base(1))
		}
		endNode(id)

		// --- I$: line available (ITLB access folded in) ----------------
		id = g.Node(i, NIC)
		beginNode(id)
		var w Weight
		if r.NewFetchLine {
			if r.ITLBMiss {
				w.add(stacks.ITLB, 1)
			}
			switch r.FetchLevel {
			case mem.LvlL2:
				w.add(stacks.L2I, 1)
			case mem.LvlMem:
				w.add(stacks.MemI, 1)
			}
			// L1 hits are pipelined: weight 0 (Table I).
		}
		addEdge(g.Node(i, NF), w)
		endNode(id)

		// --- N: rename -------------------------------------------------
		id = g.Node(i, NN)
		beginNode(id)
		// Decode depth plus the pipelined L1I hit latency.
		w = base(uint8(st.FrontendDepth))
		w.add(stacks.L1I, 1)
		addEdge(g.Node(i, NIC), w)
		if i-1 >= lo {
			addEdge(g.Node(i-1, NN), base(0)) // in-order rename
		}
		if j := i - st.RenameWidth; j >= lo {
			addEdge(g.Node(j, NN), base(1)) // finite rename bandwidth
		}
		if j := i - st.ROBSize; j >= lo {
			addEdge(g.Node(j, NC), base(1)) // finite reorder buffer
		}
		if r.RegFreeBy != trace.None && inWindow(r.RegFreeBy) {
			addEdge(g.Node(int(r.RegFreeBy), NC), base(1)) // finite physical registers
		}
		endNode(id)

		// --- D: dispatch -------------------------------------------------
		id = g.Node(i, ND)
		beginNode(id)
		addEdge(g.Node(i, NN), base(1)) // dispatch after rename
		if i-1 >= lo {
			addEdge(g.Node(i-1, ND), base(0)) // in-order dispatch
		}
		if j := i - st.DispatchWidth; j >= lo {
			addEdge(g.Node(j, ND), base(1)) // finite dispatch width
		}
		if r.IQFreeBy != trace.None && inWindow(r.IQFreeBy) {
			addEdge(g.Node(int(r.IQFreeBy), NE), base(1)) // issue dependency
		}
		endNode(id)

		// --- R: ready (address pipeline folded in for memory ops) -------
		id = g.Node(i, NR)
		beginNode(id)
		if r.Class.IsMem() {
			// Ready after dispatch, address calculation, DTLB access.
			w = base(1)
			w.add(stacks.Agu, 1)
			if r.DTLBMiss {
				w.add(stacks.DTLB, 1)
			}
			addEdge(g.Node(i, ND), w)
			if r.AddrDep != trace.None && inWindow(r.AddrDep) {
				// Data dependency for address calculation.
				var aw Weight
				aw.add(stacks.Agu, 1)
				if r.DTLBMiss {
					aw.add(stacks.DTLB, 1)
				}
				addEdge(g.Node(int(r.AddrDep), NP), aw)
			}
		} else {
			addEdge(g.Node(i, ND), base(1)) // ready after dispatch
			for _, d := range [...]int64{r.SrcDep1, r.SrcDep2} {
				if d != trace.None && inWindow(d) {
					addEdge(g.Node(int(d), NP), base(0)) // data dependency
				}
			}
		}
		endNode(id)

		// --- E: execute ---------------------------------------------------
		id = g.Node(i, NE)
		beginNode(id)
		addEdge(g.Node(i, NR), base(0)) // execute after ready
		if r.Class == isa.Load {
			// Address dependency: a load executes no earlier than
			// preceding stores.
			for _, js := range recentStores {
				addEdge(g.Node(js, NE), base(0))
			}
			// Finite MSHRs: the load waited for an outstanding fill to
			// complete before it could allocate a miss slot.
			if r.MSHRFreeBy != trace.None && inWindow(r.MSHRFreeBy) {
				addEdge(g.Node(int(r.MSHRFreeBy), NP), base(0))
			}
		}
		// Unpipelined divider occupancy: this divide waited for the unit's
		// previous occupant to complete.
		if (r.Class == isa.IntDiv || r.Class == isa.FpDiv) &&
			r.FUFreeBy != trace.None && inWindow(r.FUFreeBy) {
			addEdge(g.Node(int(r.FUFreeBy), NP), base(0))
		}
		endNode(id)
		if r.Class == isa.Store {
			recentStores = append(recentStores, i)
			if len(recentStores) > storeWindow {
				recentStores = recentStores[1:]
			}
		}

		// --- P: complete ----------------------------------------------------
		id = g.Node(i, NP)
		beginNode(id)
		w = Weight{}
		switch r.Class {
		case isa.Load:
			switch r.DataLevel {
			case mem.LvlL1:
				w.add(stacks.L1D, 1)
			case mem.LvlL2:
				w.add(stacks.L2D, 1)
			default:
				w.add(stacks.MemD, 1)
			}
		case isa.Store:
			w.add(stacks.Store, 1)
		default:
			w.add(r.Class.ExecEvent(), 1)
		}
		addEdge(g.Node(i, NE), w)
		if r.ShareWith != trace.None && inWindow(r.ShareWith) {
			// Cache line sharing: the load completes no earlier than the
			// fill it merged into.
			addEdge(g.Node(int(r.ShareWith), NP), base(0))
		}
		endNode(id)

		pendingC = append(pendingC, i)
		if r.EoM || i == hi-1 {
			flushCommits()
		}
	}
	flushCommits()
	return g, nil
}
