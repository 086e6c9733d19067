package dse

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/stacks"
)

// search.go — guided exploration over non-materialized design spaces. The
// sweep engines walk every point of a Space; the search layer instead probes
// points lazily and answers three question shapes in O(probes), not O(grid):
//
//   - halving: which design point is fastest (cheapest among ties)?
//   - target: which design point meets a CPI budget at the lowest cost?
//   - pareto: what is the exact Pareto frontier of (cycles, cost)?
//
// Exactness rests on a structural property every latency-domain engine in
// this repo has (and the testing/quick monotonicity properties pin down):
// predicted cycles are monotone non-decreasing in each latency axis. The
// search works in axis-range boxes whose two extreme corners bound every
// interior point's cycles from both sides (and, because the cost model is
// separable and strictly decreasing per axis, bound its cost for free,
// without probing). A box is pruned when its bounds prove it cannot beat the
// incumbent, squeezed when both corners agree (the whole box is a cycles
// plateau), and bisected along its widest axis otherwise — successive
// halving of the surviving axis ranges. On any space small enough to
// materialize, each mode returns exactly the exhaustive sweep's answer; the
// differential tests prove it bit-for-bit across scalar, batched, parallel
// and crash-resumed executions.
//
// Probes are evaluated in rounds through the same Engine lanes the sweeps
// use, so results are bit-identical at every worker count and lane width,
// a round can be served by the sweep fleet (SearchOptions.RoundEval), and
// completed rounds persist into a probe log (SearchOptions.Checkpoint) that
// a restarted search resumes from: the driver is deterministic, so the
// replayed prefix re-derives the same decisions from cached probes without
// touching the engine.

// maxSearchIndexBits bounds the canonical grid size a search accepts, so a
// design-point index always fits uint64 with headroom for arithmetic.
const maxSearchIndexBits = 62

// maxSearchEnumerate bounds SearchPlan.Enumerate: materializing more points
// than this is exactly what the search layer exists to avoid.
const maxSearchEnumerate = 1 << 22

// searchDefaultBatch is the lane width search rounds use when
// SearchOptions.BatchSize is zero. Rounds are small (a few corners per
// active box), so the sweeps' timing-probe autotune has nothing to measure;
// a fixed modest width keeps batched evaluators on their fast path without
// over-allocating lanes that mostly idle.
const searchDefaultBatch = 8

// planAxis is one canonical search axis: the Space axis with its candidate
// values sorted ascending and its cost weight resolved.
type planAxis struct {
	event  stacks.Event
	vals   []float64 // strictly increasing
	weight float64
}

// SearchPlan is a Space compiled for guided search: axes in declared order
// with values sorted ascending (the canonical order monotonicity is stated
// in), row-major strides assigning every design point a canonical index, and
// the resolved cost model. The canonical index is the search's tie-break of
// last resort, making every answer fully deterministic.
type SearchPlan struct {
	spec    *SearchSpec
	axes    []planAxis
	strides []uint64
	size    uint64
}

// NewSearchPlan compiles space for the guided search spec names. Beyond
// Space.Validate it requires: no duplicate values within an axis (the
// canonical order must be strict for range bisection to converge), a grid
// size that fits a canonical index, and cost weights naming real axes.
func NewSearchPlan(space *Space, spec *SearchSpec) (*SearchPlan, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	weights := make(map[stacks.Event]float64, len(spec.Cost))
	for _, c := range spec.Cost {
		weights[c.Event] = c.Weight
	}
	p := &SearchPlan{
		spec:    spec,
		axes:    make([]planAxis, len(space.Axes)),
		strides: make([]uint64, len(space.Axes)),
		size:    1,
	}
	for i, a := range space.Axes {
		vals := append([]float64(nil), a.Values...)
		sort.Float64s(vals)
		for k := 1; k < len(vals); k++ {
			if vals[k] == vals[k-1] {
				return nil, fmt.Errorf("dse: search axis %s has duplicate value %g", a.Event, vals[k])
			}
		}
		w := 1.0
		if ww, ok := weights[a.Event]; ok {
			w = ww
			delete(weights, a.Event)
		}
		p.axes[i] = planAxis{event: a.Event, vals: vals, weight: w}
		p.strides[i] = p.size
		if p.size > (uint64(1)<<maxSearchIndexBits)/uint64(len(vals)) {
			return nil, fmt.Errorf("dse: design space exceeds 2^%d points; cannot index", maxSearchIndexBits)
		}
		p.size *= uint64(len(vals))
	}
	for ev := range weights {
		return nil, fmt.Errorf("dse: cost weight for %s does not match any axis", ev)
	}
	return p, nil
}

// GridPoints returns the full design-point count the search avoids
// materializing.
func (p *SearchPlan) GridPoints() uint64 { return p.size }

// indexOf returns the canonical index of per-axis value coordinates.
func (p *SearchPlan) indexOf(coords []int) uint64 {
	var idx uint64
	for i, c := range coords {
		idx += uint64(c) * p.strides[i]
	}
	return idx
}

// coordsOf decomposes a canonical index into per-axis value coordinates.
func (p *SearchPlan) coordsOf(idx uint64, coords []int) []int {
	coords = coords[:0]
	for _, a := range p.axes {
		n := uint64(len(a.vals))
		coords = append(coords, int(idx%n))
		idx /= n
	}
	return coords
}

// PointAt materializes the design point with canonical index idx on top of
// the base latency assignment.
func (p *SearchPlan) PointAt(base stacks.Latencies, idx uint64) stacks.Latencies {
	l := base
	for _, a := range p.axes {
		n := uint64(len(a.vals))
		l[a.event] = a.vals[idx%n]
		idx /= n
	}
	return l
}

// Cost evaluates the plan's cost model on a latency assignment: the
// weighted sum over axes of (axis maximum − point latency), zero at the
// all-slowest corner and growing as latencies are bought down. The
// summation order is the axis order, so equal inputs cost bit-equal values
// everywhere the plan is consulted.
func (p *SearchPlan) Cost(l stacks.Latencies) float64 {
	var cost float64
	for _, a := range p.axes {
		cost += a.weight * (a.vals[len(a.vals)-1] - l[a.event])
	}
	return cost
}

// costAt is Cost on per-axis coordinates, same summation order and
// arithmetic as Cost so the two agree bit-for-bit on grid points.
func (p *SearchPlan) costAt(coords []int) float64 {
	var cost float64
	for i, a := range p.axes {
		cost += a.weight * (a.vals[len(a.vals)-1] - a.vals[coords[i]])
	}
	return cost
}

// Enumerate materializes every design point in canonical-index order — the
// order Exhaustive folds results in. It refuses grids past a materialization
// bound; spaces beyond it are what the search modes are for.
func (p *SearchPlan) Enumerate(base stacks.Latencies) ([]stacks.Latencies, error) {
	if p.size > maxSearchEnumerate {
		return nil, fmt.Errorf("dse: %d design points exceed the materialization bound %d", p.size, maxSearchEnumerate)
	}
	out := make([]stacks.Latencies, p.size)
	for i := range out {
		out[i] = p.PointAt(base, uint64(i))
	}
	return out, nil
}

// SearchPoint is one design point a search returns: the optimum, a target
// hit, or one frontier member, with its predicted cycles and model cost.
// When the search verified it against an oracle, VerifyCycles holds the
// oracle's ground truth and VerifyErrPct the CPI error in percent.
type SearchPoint struct {
	Index        uint64           `json:"index"`
	Lat          stacks.Latencies `json:"lat"`
	Cycles       float64          `json:"cycles"`
	Cost         float64          `json:"cost"`
	VerifyCycles float64          `json:"verify_cycles,omitempty"`
	VerifyErrPct float64          `json:"verify_err_pct,omitempty"`
}

// SearchResult is the outcome of one guided search.
type SearchResult struct {
	// Mode and Method name the search mode and probing engine.
	Mode   string `json:"mode"`
	Method string `json:"method"`
	// GridPoints is the full factorial size the search did not materialize.
	GridPoints uint64 `json:"grid_points"`
	// Probes counts design points actually evaluated this run;
	// ResumedProbes counts points restored from the probe log instead.
	Probes        int `json:"probes"`
	ResumedProbes int `json:"resumed_probes,omitempty"`
	// Rounds is the number of probe rounds the driver ran; PeakBoxes the
	// largest number of simultaneously surviving axis-range boxes. Probes
	// is bounded by 2·Rounds·PeakBoxes — the grid size never enters.
	Rounds    int `json:"rounds"`
	PeakBoxes int `json:"peak_boxes"`
	// Converged is false only when SearchSpec.MaxRounds stopped the search
	// before it proved exactness; the result is then best-effort.
	Converged bool `json:"converged"`
	// Feasible reports whether a target search found any point meeting the
	// budget (true for other modes).
	Feasible bool `json:"feasible"`
	// FastestCycles is the predicted cycle count of the all-fastest corner
	// (canonical index 0), probed in round 1 by every mode: the floor of
	// what the space can reach.
	FastestCycles float64 `json:"fastest_cycles"`
	// Best is the single answer of halving and target searches (nil for an
	// infeasible target). Frontier is the pareto answer, sorted by cycles
	// ascending.
	Best     *SearchPoint  `json:"best,omitempty"`
	Frontier []SearchPoint `json:"frontier,omitempty"`
	// Verified reports that every returned point was re-derived through
	// SearchOptions.Verify; VerifyMaxErrPct is the worst CPI error seen.
	Verified        bool    `json:"verified,omitempty"`
	VerifyMaxErrPct float64 `json:"verify_max_err_pct,omitempty"`
	// Setup, Wall and Batch mirror Report: one-time engine preparation,
	// search wall-clock, and the resolved probe lane width.
	Setup time.Duration `json:"setup_ns"`
	Wall  time.Duration `json:"wall_ns"`
	Batch int           `json:"batch"`
	// Fingerprint is the search identity hash binding engine inputs, space
	// and spec; set on probe-logged searches (and with NeedFingerprint).
	Fingerprint []byte `json:"fingerprint,omitempty"`
}

// SearchOptions configures how a search probes its engine. The embedded
// ExploreOptions keep their sweep meaning per probe round: rounds are
// sharded over Parallelism workers in BatchSize lanes, cancelled between
// chunks by Context, and traced under TraceParent. Checkpoint persists the
// probe log (one file per completed round) that a restarted identical
// search resumes from.
type SearchOptions struct {
	ExploreOptions
	// MicroOps is the probed trace's µop count, required by target mode to
	// turn SearchSpec.TargetCPI into a cycle budget.
	MicroOps int
	// Verify, when non-nil, re-derives every returned point's cycle count
	// through an accuracy oracle (internal/audit's SimOracle or
	// GraphOracle) after the search converges, recording per-point and
	// worst-case CPI error on the result. A verification failure fails the
	// search.
	Verify func(stacks.Latencies) (float64, error)
	// RoundEval, when non-nil, replaces the engine's in-process round
	// evaluation: it receives one round's probe list and must return the
	// engine-identical cycle count per point. The service uses it to serve
	// search rounds through the sweep fleet's chunk leasing; tests use it
	// to search synthetic monotone surfaces.
	RoundEval func(ctx context.Context, points []stacks.Latencies) ([]float64, error)
}

// paretoInsert offers a probed point to a mutually non-dominated archive:
// the point is dropped when a member weakly dominates it (an equal pair
// keeps its first, deterministic witness), and members the point dominates
// are evicted. Because members are mutually non-dominated, a dominated
// offer evicts nobody, which makes the in-place filtering safe.
func paretoInsert(archive []SearchPoint, p SearchPoint) []SearchPoint {
	keep := archive[:0]
	for _, a := range archive {
		if a.Cycles <= p.Cycles && a.Cost <= p.Cost {
			return archive // weakly dominated: the pair is already represented
		}
		if !(p.Cycles <= a.Cycles && p.Cost <= a.Cost) {
			keep = append(keep, a)
		}
	}
	return append(keep, p)
}

// incumbent is the best scalar answer seen so far under a lexicographic
// order, with the canonical index as the deterministic tie-break of last
// resort.
type incumbent struct {
	ok   bool
	a, b float64 // mode's primary and secondary keys
	idx  uint64
}

func (in *incumbent) offer(a, b float64, idx uint64) {
	if !in.ok || a < in.a || (a == in.a && (b < in.b || (b == in.b && idx < in.idx))) {
		in.ok, in.a, in.b, in.idx = true, a, b, idx
	}
}

// box is one surviving region of the search: per-axis inclusive coordinate
// ranges in the canonical (sorted-values) space.
type box struct {
	lo, hi []int
}

// searcher carries one running search.
type searcher struct {
	plan   *SearchPlan
	base   stacks.Latencies
	opts   *SearchOptions
	res    *SearchResult
	budget float64 // target mode cycle budget
	cache  map[uint64]float64
	engine *Engine
	// lanes holds one lane per worker, each built on that worker's first
	// in-process round: a search whose every round opts.RoundEval serves
	// never allocates one.
	lanes  []lane
	logDir string
	fp     []byte
	parent uint64 // search root span
	coords []int  // scratch
}

// probeRound evaluates every not-yet-cached index in want (sorted, deduped)
// through the engine, caches the results, and appends one probe-log chunk.
func (s *searcher) probeRound(want []uint64) error {
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	pending := want[:0]
	var last uint64
	for k, idx := range want {
		if k > 0 && idx == last {
			continue
		}
		last = idx
		if _, ok := s.cache[idx]; !ok {
			pending = append(pending, idx)
		}
	}
	if len(pending) == 0 {
		return nil // fully replayed round: the probe log already had it
	}
	pts := make([]stacks.Latencies, len(pending))
	for k, idx := range pending {
		pts[k] = s.plan.PointAt(s.base, idx)
	}
	out := make([]float64, len(pending))
	sp := s.opts.Tracer.StartChild(s.parent, obs.CatDSE, obs.NameRound)
	sp.SetArg(obs.ArgPoints, int64(len(pending)))
	var err error
	if s.opts.RoundEval != nil {
		var got []float64
		got, err = s.opts.RoundEval(s.opts.Context, pts)
		if err == nil && len(got) != len(pts) {
			err = fmt.Errorf("dse: search round evaluator returned %d cycles for %d points", len(got), len(pts))
		}
		if err == nil {
			copy(out, got)
		}
	} else {
		err = s.evalRound(sp.ID(), pts, out)
	}
	sp.End()
	if err != nil {
		return err
	}
	for k, idx := range pending {
		s.cache[idx] = out[k]
	}
	s.res.Probes += len(pending)
	if s.logDir != "" {
		if err := saveProbeChunk(s.logDir, s.fp, pending, out); err != nil {
			return err
		}
	}
	return nil
}

// cornerIdx returns the canonical indices of a box's two extreme corners.
func (s *searcher) cornerIdx(b box) (lo, hi uint64) {
	return s.plan.indexOf(b.lo), s.plan.indexOf(b.hi)
}

// split bisects b along its widest axis into two child boxes.
func split(b box, next *[]box) {
	axis, width := 0, 0
	for i := range b.lo {
		if w := b.hi[i] - b.lo[i]; w > width {
			axis, width = i, w
		}
	}
	mid := b.lo[axis] + (b.hi[axis]-b.lo[axis])/2
	left := box{lo: append([]int(nil), b.lo...), hi: append([]int(nil), b.hi...)}
	right := box{lo: append([]int(nil), b.lo...), hi: append([]int(nil), b.hi...)}
	left.hi[axis] = mid
	right.lo[axis] = mid + 1
	*next = append(*next, left, right)
}

// run drives the round loop: probe every active box's corners, then prune,
// squeeze or bisect each box under the mode's rule. Decisions depend only
// on probed cycle values, which the engines produce bit-identically at
// every worker count and lane width — so the probe set, the probe log and
// the answer are deterministic across executions and resumes.
func (s *searcher) run() error {
	full := box{lo: make([]int, len(s.plan.axes)), hi: make([]int, len(s.plan.axes))}
	for i, a := range s.plan.axes {
		full.hi[i] = len(a.vals) - 1
	}
	var best incumbent        // halving: (cycles, cost); target: (cost, cycles)
	var archive []SearchPoint // pareto: mutually non-dominated (cycles, cost) witnesses
	mode := s.plan.spec.Mode

	point := func(idx uint64, cycles, cost float64) SearchPoint {
		return SearchPoint{Index: idx, Lat: s.plan.PointAt(s.base, idx), Cycles: cycles, Cost: cost}
	}
	// covered reports whether an archive member weakly dominates the whole
	// box given its cycles floor and (free) cost floor — every interior
	// pair is then already represented and the box can be pruned.
	covered := func(cLo, costLB float64) bool {
		for _, a := range archive {
			if a.Cycles <= cLo && a.Cost <= costLB {
				return true
			}
		}
		return false
	}

	active := []box{full}
	for len(active) > 0 {
		if s.plan.spec.MaxRounds > 0 && s.res.Rounds >= s.plan.spec.MaxRounds {
			s.res.Converged = false
			break
		}
		s.res.Rounds++
		if len(active) > s.res.PeakBoxes {
			s.res.PeakBoxes = len(active)
		}
		want := make([]uint64, 0, 2*len(active))
		for _, b := range active {
			lo, hi := s.cornerIdx(b)
			want = append(want, lo, hi)
		}
		if err := s.probeRound(want); err != nil {
			return err
		}
		var next []box
		for _, b := range active {
			loI, hiI := s.cornerIdx(b)
			cLo, cHi := s.cache[loI], s.cache[hiI]
			costLo, costHi := s.plan.costAt(b.lo), s.plan.costAt(b.hi)
			switch mode {
			case SearchHalving:
				// Minimize (cycles, cost, index). Monotonicity bounds every
				// interior point's cycles by [cLo, cHi] and its cost is
				// strictly above costHi, so after offering both corners a
				// box that cannot beat the incumbent is pruned exactly.
				best.offer(cLo, costLo, loI)
				best.offer(cHi, costHi, hiI)
				if cLo == cHi {
					break // cycles plateau: its cheapest point is the hi corner, offered
				}
				if cLo > best.a || (cLo == best.a && costHi >= best.b) {
					break
				}
				split(b, &next)
			case SearchTarget:
				// Minimize (cost, cycles, index) subject to cycles ≤ budget.
				if cLo > s.budget {
					break // the box's fastest corner misses the budget: all infeasible
				}
				if cHi <= s.budget {
					// Whole box feasible; its unique cheapest point is the
					// hi corner.
					best.offer(costHi, cHi, hiI)
					best.offer(costLo, cLo, loI)
					break
				}
				best.offer(costLo, cLo, loI)
				if best.ok && costHi >= best.a {
					// Feasible interior points cost strictly more than the
					// (infeasible) hi corner, so none can beat the incumbent.
					break
				}
				split(b, &next)
			case SearchPareto:
				archive = paretoInsert(archive, point(loI, cLo, costLo))
				archive = paretoInsert(archive, point(hiI, cHi, costHi))
				if cLo == cHi {
					break // plateau: (cLo, costHi) weakly dominates the box, and is archived
				}
				if covered(cLo, costHi) {
					break
				}
				split(b, &next)
			}
		}
		active = next
	}

	switch mode {
	case SearchHalving:
		p := point(best.idx, best.a, best.b)
		s.res.Best = &p
	case SearchTarget:
		if best.ok {
			p := point(best.idx, best.b, best.a)
			s.res.Best = &p
		} else {
			s.res.Feasible = false
		}
	case SearchPareto:
		sort.Slice(archive, func(i, j int) bool { return archive[i].Cycles < archive[j].Cycles })
		s.res.Frontier = archive
	}
	s.res.FastestCycles = s.cache[0]
	return nil
}

// verify re-derives every returned point through opts.Verify, recording
// per-point and worst-case CPI error.
func (s *searcher) verify() error {
	if s.opts.Verify == nil {
		return nil
	}
	check := func(p *SearchPoint) error {
		sp := s.opts.Tracer.StartChild(s.parent, obs.CatDSE, obs.NameTruth)
		truth, err := s.opts.Verify(p.Lat)
		sp.End()
		if err != nil {
			return fmt.Errorf("dse: verifying search point %d: %w", p.Index, err)
		}
		p.VerifyCycles = truth
		switch {
		case truth != 0:
			p.VerifyErrPct = math.Abs(p.Cycles-truth) / truth * 100
		case p.Cycles != 0:
			p.VerifyErrPct = 100
		}
		if p.VerifyErrPct > s.res.VerifyMaxErrPct {
			s.res.VerifyMaxErrPct = p.VerifyErrPct
		}
		return nil
	}
	if s.res.Best != nil {
		if err := check(s.res.Best); err != nil {
			return err
		}
	}
	for i := range s.res.Frontier {
		if err := check(&s.res.Frontier[i]); err != nil {
			return err
		}
	}
	s.res.Verified = true
	return nil
}

// evalRound evaluates one probe round in-process through the engine's lanes,
// sharding it over the configured workers through the same chunked sweep
// the Explore engines use, so a round inherits their parallel scheduling,
// chunk spans and chunk-granular cancellation — and each claimed chunk is
// walked in width-sized lanes exactly as a sweep walks it.
func (s *searcher) evalRound(parent uint64, pts []stacks.Latencies, out []float64) error {
	if s.lanes == nil {
		s.lanes = make([]lane, s.opts.workerCount(math.MaxInt))
	}
	width := s.res.Batch
	eo := s.opts.ExploreOptions
	eo.Checkpoint = nil // the probe log persists rounds, not chunks
	eo.TraceParent = parent
	_, _, err := sweep(len(pts), eo, func(worker, lo, hi int) error {
		ln := s.lanes[worker]
		if ln == nil {
			ln = s.engine.lanes(width)
			s.lanes[worker] = ln
		}
		for i := lo; i < hi; i += width {
			j := min(i+width, hi)
			if err := ln(pts[i:j], out[i:j]); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// Search runs a guided search probing design points through the engine,
// with the same lanes and bit-identity guarantees as Explore: results are
// identical at every worker count and lane width (SearchOptions.BatchSize;
// an unset width takes a small fixed default, always 1 for the sim engine).
// Off-axis events keep their base latencies. When opts.RoundEval serves the
// rounds the engine is only fingerprinted, never evaluated.
func Search(e *Engine, base stacks.Latencies, space *Space, spec *SearchSpec, opts SearchOptions) (*SearchResult, error) {
	plan, err := NewSearchPlan(space, spec)
	if err != nil {
		return nil, err
	}
	s := &searcher{
		plan:   plan,
		base:   base,
		opts:   &opts,
		cache:  make(map[uint64]float64),
		engine: e,
		res: &SearchResult{
			Mode:       spec.Mode,
			Method:     e.method,
			GridPoints: plan.GridPoints(),
			Converged:  true,
			Feasible:   true,
			Setup:      opts.Setup,
			Batch:      e.searchWidth(opts.BatchSize),
		},
	}
	if spec.Mode == SearchTarget {
		if opts.MicroOps <= 0 {
			return nil, fmt.Errorf("dse: target search needs SearchOptions.MicroOps to turn CPI %g into cycles", spec.TargetCPI)
		}
		if spec.TargetCPI <= 0 {
			return nil, fmt.Errorf("dse: target search needs a positive cpi budget")
		}
		s.budget = spec.TargetCPI * float64(opts.MicroOps)
	}
	root := opts.Tracer.StartChild(opts.TraceParent, obs.CatDSE, obs.NameSearch)
	root.SetDetail(e.method + "/" + spec.Mode)
	defer root.End()
	s.parent = root.ID()

	if opts.Checkpoint != nil || opts.NeedFingerprint {
		fp, err := searchFingerprint(e.method, e.salt, plan, base)
		if err != nil {
			return nil, err
		}
		s.fp = fp
		s.res.Fingerprint = fp
	}
	if opts.Checkpoint != nil {
		s.logDir = opts.Checkpoint.Dir
		restored, err := loadProbeLog(s.logDir, s.fp, plan.GridPoints(), s.cache, opts.Tracer, s.parent)
		if err != nil {
			return nil, err
		}
		s.res.ResumedProbes = restored
	}

	start := time.Now()
	if err := s.run(); err != nil {
		return nil, err
	}
	if err := s.verify(); err != nil {
		return nil, err
	}
	s.res.Wall = time.Since(start)
	root.SetArg(obs.ArgPoints, int64(s.res.Probes))
	if opts.Checkpoint != nil && opts.Checkpoint.RemoveOnSuccess {
		removeProbeLog(s.logDir)
	}
	return s.res, nil
}

// SearchWith runs a guided search whose every round is evaluated by
// opts.RoundEval — no in-process engine at all. It is the substrate of the
// property tests (searching synthetic monotone surfaces) and of callers
// that fully delegate probing.
func SearchWith(base stacks.Latencies, space *Space, spec *SearchSpec, opts SearchOptions) (*SearchResult, error) {
	if opts.RoundEval == nil {
		return nil, fmt.Errorf("dse: SearchWith needs SearchOptions.RoundEval")
	}
	return Search(&Engine{method: "custom", scalarOnly: true}, base, space, spec, opts)
}

// Exhaustive folds plan-ordered cycle counts (cycles[i] is the prediction
// of canonical index i, e.g. an Explore sweep over plan.Enumerate's points)
// into the answer the search mode must return. It is the reference of the
// exhaustive-equivalence differential layer and of rpexplore's
// -search-selfcheck, computed by the straightforward full scan the search
// exists to avoid.
func (p *SearchPlan) Exhaustive(cycles []float64, microOps int) (*SearchResult, error) {
	if uint64(len(cycles)) != p.size {
		return nil, fmt.Errorf("dse: exhaustive reference wants %d cycle counts, got %d", p.size, len(cycles))
	}
	res := &SearchResult{
		Mode:       p.spec.Mode,
		Method:     "exhaustive",
		GridPoints: p.size,
		Probes:     len(cycles),
		Rounds:     1,
		Converged:  true,
		Feasible:   true,
	}
	if len(cycles) > 0 {
		res.FastestCycles = cycles[0]
	}
	var budget float64
	if p.spec.Mode == SearchTarget {
		if microOps <= 0 {
			return nil, fmt.Errorf("dse: target reference needs the µop count")
		}
		budget = p.spec.TargetCPI * float64(microOps)
	}
	var best incumbent
	var frontier []SearchPoint
	coords := make([]int, 0, len(p.axes))
	for i, c := range cycles {
		idx := uint64(i)
		coords = p.coordsOf(idx, coords)
		cost := p.costAt(coords)
		switch p.spec.Mode {
		case SearchHalving:
			best.offer(c, cost, idx)
		case SearchTarget:
			if c <= budget {
				best.offer(cost, c, idx)
			}
		case SearchPareto:
			frontier = paretoInsert(frontier, SearchPoint{Index: idx, Cycles: c, Cost: cost})
		}
	}
	switch p.spec.Mode {
	case SearchHalving:
		res.Best = &SearchPoint{Index: best.idx, Cycles: best.a, Cost: best.b}
	case SearchTarget:
		if best.ok {
			res.Best = &SearchPoint{Index: best.idx, Cycles: best.b, Cost: best.a}
		} else {
			res.Feasible = false
		}
	case SearchPareto:
		sort.Slice(frontier, func(i, j int) bool { return frontier[i].Cycles < frontier[j].Cycles })
		res.Frontier = frontier
	}
	return res, nil
}

// EqualAnswers reports whether two search results agree on the answer —
// the fields a correct search must reproduce exactly: convergence,
// feasibility, the fastest-corner floor, the optimum point (bit-equal
// cycles, cost and canonical index) or the full frontier pair list. Probe
// counts, timings and witnesses of frontier pairs (which may legitimately
// differ between a lazy search and a full scan when several points share a
// pair) are not compared.
func EqualAnswers(got, want *SearchResult) error {
	if got.Mode != want.Mode {
		return fmt.Errorf("mode %q != %q", got.Mode, want.Mode)
	}
	if !got.Converged || !want.Converged {
		return fmt.Errorf("unconverged result (got %v, want %v)", got.Converged, want.Converged)
	}
	if got.GridPoints != want.GridPoints {
		return fmt.Errorf("grid %d != %d", got.GridPoints, want.GridPoints)
	}
	if got.FastestCycles != want.FastestCycles {
		return fmt.Errorf("fastest corner %g != %g", got.FastestCycles, want.FastestCycles)
	}
	if got.Feasible != want.Feasible {
		return fmt.Errorf("feasible %v != %v", got.Feasible, want.Feasible)
	}
	if (got.Best == nil) != (want.Best == nil) {
		return fmt.Errorf("best presence %v != %v", got.Best != nil, want.Best != nil)
	}
	if got.Best != nil {
		g, w := got.Best, want.Best
		if g.Index != w.Index || g.Cycles != w.Cycles || g.Cost != w.Cost {
			return fmt.Errorf("best (idx %d, cycles %g, cost %g) != (idx %d, cycles %g, cost %g)",
				g.Index, g.Cycles, g.Cost, w.Index, w.Cycles, w.Cost)
		}
	}
	if len(got.Frontier) != len(want.Frontier) {
		return fmt.Errorf("frontier size %d != %d", len(got.Frontier), len(want.Frontier))
	}
	for i := range got.Frontier {
		g, w := got.Frontier[i], want.Frontier[i]
		if g.Cycles != w.Cycles || g.Cost != w.Cost {
			return fmt.Errorf("frontier[%d] (cycles %g, cost %g) != (cycles %g, cost %g)", i, g.Cycles, g.Cost, w.Cycles, w.Cost)
		}
	}
	return nil
}
