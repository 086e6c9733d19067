package dse

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/isa"
	"repro/internal/stacks"
)

// engine.go — the three evaluation engines the paper times against each
// other (Section V-C), each bound to its prepared inputs. An Engine carries
// everything the sweep, search and fleet layers need to know about one:
// the method name its results and fingerprints carry, the salt that streams
// its inputs into those fingerprints, its lane-width cap, and a per-worker
// lane factory. Explore, Search and SweepFingerprint take an Engine, so no
// entry point restates an engine's binding.

// lane evaluates len(lats) ≤ width design points on one worker's private
// scratch, writing cycle counts into out in lats order.
type lane func(lats []stacks.Latencies, out []float64) error

// Engine is one evaluation engine bound to its prepared inputs. Build one
// with RpStacksEngine, GraphEngine or SimEngine, or resolve a wire/flag name
// with NewEngine. An Engine only reads its inputs, so one value serves any
// number of concurrent sweeps and searches.
type Engine struct {
	// method is the Report.Method and SearchResult.Method string; it also
	// opens every sweep and search fingerprint, which is why it must never
	// change for an existing engine.
	method string
	// salt streams the engine's prepared input into fingerprints.
	salt func(io.Writer) error
	// maxWidth caps the autotuned and default lane widths (0: uncapped). An
	// explicit BatchSize overrides it — the caller asked for that memory.
	maxWidth int
	// scalarOnly marks an engine with no batched form: every sweep and
	// search runs it at width 1, whatever BatchSize says.
	scalarOnly bool
	// lanes builds one worker's lane function of the given width. At width 1
	// it wraps the engine's scalar evaluator directly; wider, its batched
	// evaluator.
	lanes func(width int) lane
}

// RpStacksEngine predicts design points from a prebuilt RpStacks analysis:
// per point the cost is proportional to the (small) number of
// representative stacks, independent of trace length. Lanes are
// Analysis.Predict at width 1 and a core.BatchPredictor wider.
func RpStacksEngine(a *core.Analysis) *Engine {
	return &Engine{
		method: "rpstacks",
		salt:   func(w io.Writer) error { return core.WriteAnalysis(w, a) },
		lanes: func(width int) lane {
			if width <= 1 {
				return func(lats []stacks.Latencies, out []float64) error {
					for i := range lats {
						out[i] = a.Predict(&lats[i])
					}
					return nil
				}
			}
			bp := a.NewBatchPredictor(width)
			return func(lats []stacks.Latencies, out []float64) error {
				bp.Predict(lats, out)
				return nil
			}
		},
	}
}

// maxGraphBatchInt64s bounds the per-worker distance buffer of a batched
// graph sweep (nodes × lanes int64s) when the lane width is autotuned: on
// very large graphs the autotuner narrows the batch rather than allocating
// hundreds of megabytes per worker.
const maxGraphBatchInt64s = 1 << 22 // 32 MiB of lanes per worker

// GraphEngine predicts design points by re-evaluating the longest path of a
// prebuilt baseline dependence graph (the Fields-style reconstruction
// comparator): cheaper than simulation, still linear in trace length per
// point. Lanes are a depgraph.Evaluator at width 1 and a
// depgraph.BatchEvaluator wider; the graph itself is only read.
func GraphEngine(g *depgraph.Graph) *Engine {
	e := &Engine{
		method: "graph",
		salt:   g.WriteFingerprint,
		lanes: func(width int) lane {
			if width <= 1 {
				ev := g.NewEvaluator()
				return func(lats []stacks.Latencies, out []float64) error {
					for i := range lats {
						out[i] = float64(ev.LongestPath(&lats[i]))
					}
					return nil
				}
			}
			be := g.NewBatchEvaluator(width)
			sink := make([]int64, width)
			return func(lats []stacks.Latencies, out []float64) error {
				s := sink[:len(lats)]
				be.LongestPaths(lats, s)
				for t, v := range s {
					out[t] = float64(v)
				}
				return nil
			}
		},
	}
	if g != nil {
		if nodes := g.NumNodes(); nodes > 0 {
			// A graph too large to batch within budget autotunes to scalar.
			e.maxWidth = max(maxGraphBatchInt64s/nodes, 1)
		}
	}
	return e
}

// SimEngine measures design points by re-running the timing simulator over
// uops: the ground truth, and the cost yardstick of Figure 13. Each lane
// clones the configuration per point, so concurrent workers never share
// simulator state. Re-simulation has no batched form.
func SimEngine(cfg *config.Config, uops []isa.MicroOp) *Engine {
	return &Engine{
		method: "simulator",
		// The output is determined by the structural config and the µop
		// stream; per-point latencies come from the point list the
		// fingerprint already covers.
		salt: func(w io.Writer) error {
			cj, err := json.Marshal(cfg)
			if err != nil {
				return err
			}
			if _, err := w.Write(cj); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%v", uops)
			return err
		},
		scalarOnly: true,
		lanes: func(int) lane {
			return func(lats []stacks.Latencies, out []float64) error {
				for i := range lats {
					c := cfg.Clone()
					c.Lat = lats[i]
					s, err := cpu.New(c)
					if err != nil {
						return err
					}
					tr, err := s.Run(uops)
					if err != nil {
						return err
					}
					out[i] = float64(tr.Cycles)
				}
				return nil
			}
		},
	}
}

// EngineNames lists the engines' wire/flag names, in render order.
var EngineNames = []string{"rpstacks", "graph", "sim"}

// EngineInputs carries the prepared inputs the engines draw on. NewEngine
// binds only the named engine's fields, and no engine reads them before it
// runs.
type EngineInputs struct {
	Analysis *core.Analysis
	Graph    *depgraph.Graph
	Cfg      *config.Config
	UOps     []isa.MicroOp
}

// NewEngine resolves an engine's wire/flag name — rpstacks, graph or sim,
// as rpexplore's -method, a job request's engine and a fleet sweep spec
// spell it — into the engine bound to its inputs. An unknown name is an
// error.
func NewEngine(name string, in EngineInputs) (*Engine, error) {
	switch name {
	case "rpstacks":
		return RpStacksEngine(in.Analysis), nil
	case "graph":
		return GraphEngine(in.Graph), nil
	case "sim":
		return SimEngine(in.Cfg, in.UOps), nil
	}
	return nil, fmt.Errorf("dse: unknown engine %q (want rpstacks, graph or sim)", name)
}

// EngineMethod resolves an engine's wire/flag name to its Report.Method
// without any inputs — what a fleet coordinator, which never builds the
// engine, stamps on assembled reports.
func EngineMethod(name string) (string, error) {
	e, err := NewEngine(name, EngineInputs{})
	if err != nil {
		return "", err
	}
	return e.method, nil
}

// sweepWidth resolves ExploreOptions.BatchSize for a sweep over points: 1
// for a scalar-only engine, otherwise the autotuner's pick (see
// pickBatchWidth), probing real design points through throwaway lanes.
func (e *Engine) sweepWidth(requested int, points []stacks.Latencies) int {
	if e.scalarOnly {
		return 1
	}
	return pickBatchWidth(requested, len(points), e.maxWidth, func(w int) time.Duration {
		ln := e.lanes(w)
		sink := make([]float64, w)
		start := time.Now()
		_ = ln(points[:w], sink) // only timed: the sweep itself reports any lane error
		return time.Since(start)
	})
}

// searchWidth resolves SearchOptions.BatchSize: search rounds are small, so
// instead of autotuning an unset width takes searchDefaultBatch, capped by
// the engine's memory ceiling.
func (e *Engine) searchWidth(requested int) int {
	switch {
	case e.scalarOnly:
		return 1
	case requested > 0:
		return requested
	case e.maxWidth > 0:
		return min(searchDefaultBatch, e.maxWidth)
	}
	return searchDefaultBatch
}

// The engine-specific forms below predate Engine and are kept as one-line
// forwards for their existing callers (the job benchmark among them).

// ExploreRpStacksOpts is Explore(RpStacksEngine(a), points, opts).
func ExploreRpStacksOpts(a *core.Analysis, points []stacks.Latencies, opts ExploreOptions) (*Report, error) {
	return Explore(RpStacksEngine(a), points, opts)
}

// ExploreGraphOpts is Explore(GraphEngine(g), points, opts).
func ExploreGraphOpts(g *depgraph.Graph, points []stacks.Latencies, opts ExploreOptions) (*Report, error) {
	return Explore(GraphEngine(g), points, opts)
}

// SearchRpStacks is Search(RpStacksEngine(a), base, space, spec, opts).
func SearchRpStacks(a *core.Analysis, base stacks.Latencies, space *Space, spec *SearchSpec, opts SearchOptions) (*SearchResult, error) {
	return Search(RpStacksEngine(a), base, space, spec, opts)
}

// SearchGraph is Search(GraphEngine(g), base, space, spec, opts).
func SearchGraph(g *depgraph.Graph, base stacks.Latencies, space *Space, spec *SearchSpec, opts SearchOptions) (*SearchResult, error) {
	return Search(GraphEngine(g), base, space, spec, opts)
}

// SweepFingerprintRpStacks is SweepFingerprint(RpStacksEngine(a), points).
func SweepFingerprintRpStacks(a *core.Analysis, points []stacks.Latencies) ([]byte, error) {
	return SweepFingerprint(RpStacksEngine(a), points)
}

// SweepFingerprintGraph is SweepFingerprint(GraphEngine(g), points).
func SweepFingerprintGraph(g *depgraph.Graph, points []stacks.Latencies) ([]byte, error) {
	return SweepFingerprint(GraphEngine(g), points)
}
