// Command rpexplore runs batch latency-domain design space exploration over
// one workload with a selectable engine — RpStacks, graph reconstruction or
// per-point re-simulation — and reports the best points under a CPI target.
//
// Usage:
//
//	rpexplore -app 416.gamess -axis L1D=1,2,3,4 -axis FpAdd=2,4,6 \
//	          [-method rpstacks|graph|sim] [-target 0.55] [-top 10] [-n 60000] \
//	          [-parallelism 8] [-chunk 64] [-batch 8] [-checkpoint sweep.ckpt/] \
//	          [-trace-out sweep.trace.json] [-progress] [-lossless] \
//	          [-audit-fraction 0.1] [-audit-seed 1] [-audit-oracle sim|graph] \
//	          [-audit-drift 5] [-audit-out audit.json] \
//	          [-search halving|pareto|target;cpi=0.55;cost=L1D:2] \
//	          [-search-out search.json] [-search-selfcheck]
//
// With -search, the exhaustive sweep is replaced by a guided search that
// probes the space lazily — the grid is never materialized, so the axes may
// span spaces far too large to enumerate. Modes: halving (global minimum
// cycles), pareto (the exact CPI-vs-cost frontier under the spec's per-axis
// cost weights) and target (cheapest point reaching the cpi budget; -target
// doubles as the budget when the spec has no cpi key). Every returned
// optimum is re-derived through the -audit-oracle; -checkpoint doubles as a
// crash-safe probe log that is kept on success as the record of every
// probed point; -search-selfcheck materializes small grids and fails unless
// the search answer equals the exhaustive one.
//
// With -checkpoint, every completed chunk of design points is persisted
// atomically under the given directory: a killed sweep re-run with the same
// flags resumes where it stopped and returns results identical to an
// uninterrupted run. A directory written by a different sweep (other
// method, workload or axes) is rejected. Once the sweep completes and its
// report is printed, the chunk files are removed (failed or interrupted
// runs keep them, so resume always has its state).
//
// With -batch, the graph and rpstacks engines evaluate that many design
// points per pass over their model (0, the default, autotunes the width; 1
// forces the scalar per-point path; sim is always scalar). Batching is an
// execution detail: results, fingerprints and checkpoints are identical at
// every width.
//
// With -trace-out, the run's span flight recorder is exported as Chrome
// trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing — one span per chunk for exhaustive sweeps, one per probe
// round for guided searches. -progress prints a periodic points/sec + ETA
// line to stderr, including how many chunks were restored from a checkpoint;
// -progress-json emits the same meter as NDJSON events in the journal stream
// schema (the frames rpserved serves over SSE), ending with a terminal done
// event, so scripts parse one format wherever the sweep ran.
//
// With -audit-fraction, a shadow accuracy audit scores the sweep after it
// finishes: a deterministic, fingerprint-seeded sample of design points is
// re-derived through the chosen oracle (sim: re-run the ground-truth
// simulator, the paper's accuracy definition; graph: re-evaluate the
// dependence-graph model, exact for a -lossless RpStacks analysis) and the
// per-point CPI error plus per-class stall-stack divergence is summarized —
// and written as a JSON report to -audit-out. -lossless disables the
// similarity merging and segmentation of the RpStacks analysis (exponential
// in the worst case: keep -n tiny), making its predictions provably equal to
// the graph model.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/stacks"
)

// axisFlags collects repeated -axis flags. Parsing is shared with the
// rpserved job-request decoder via dse.ParseAxisSpec, so the CLI and the
// service accept exactly the same axis syntax.
type axisFlags []dse.Axis

func (a *axisFlags) String() string { return fmt.Sprint(*a) }

func (a *axisFlags) Set(v string) error {
	ax, err := dse.ParseAxisSpec(v)
	if err != nil {
		return err
	}
	for _, prev := range *a {
		if prev.Event == ax.Event {
			return fmt.Errorf("duplicate -axis for event %s", ax.Event)
		}
	}
	*a = append(*a, ax)
	return nil
}

func main() {
	var axes axisFlags
	app := flag.String("app", "416.gamess", "workload name")
	method := flag.String("method", "rpstacks", "engine: rpstacks, graph or sim")
	target := flag.Float64("target", 0, "CPI target (0: report the best points)")
	top := flag.Int("top", 10, "points to print")
	n := flag.Int("n", 60000, "measured µops")
	par := flag.Int("parallelism", runtime.GOMAXPROCS(0), "sweep workers (1: serial)")
	chunk := flag.Int("chunk", 0, "design points per work unit (0: automatic)")
	batch := flag.Int("batch", 0, "design points per model pass for the graph and rpstacks engines (0: autotuned, 1: scalar; results are identical at every width)")
	checkpoint := flag.String("checkpoint", "", "directory for crash-safe sweep resume (empty: off)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the sweep to this file (empty: off)")
	progress := flag.Bool("progress", false, "print a periodic progress line to stderr")
	progressJSON := flag.Bool("progress-json", false, "emit progress as NDJSON events to stderr (the journal stream schema rpserved serves over SSE) instead of the human line")
	lossless := flag.Bool("lossless", false, "disable RpStacks merging and segmentation: predictions become exactly the graph model (exponential worst case; keep -n tiny)")
	search := flag.String("search", "", "guided search instead of an exhaustive sweep: halving|pareto|target with ;cpi= ;rounds= ;cost=EV:W,... keys; probes lazily, so the axes may span grids far too large to materialize")
	searchOut := flag.String("search-out", "", "write the search result JSON to this file (empty: off)")
	searchSelfcheck := flag.Bool("search-selfcheck", false, "after the search, sweep the materialized grid and fail unless the answers are exactly equal (small spaces only)")
	auditFraction := flag.Float64("audit-fraction", 0, "share of design points to shadow-audit against ground truth (0: off, 1: all)")
	auditSeed := flag.Uint64("audit-seed", 0, "seed mixed into the deterministic audit sample")
	auditOracle := flag.String("audit-oracle", "sim", "audit ground truth: sim (re-simulate) or graph (dependence-graph model)")
	auditDrift := flag.Float64("audit-drift", 0, "per-point CPI error percentage counted as drift (0: default threshold)")
	auditOut := flag.String("audit-out", "", "write the audit report JSON to this file (empty: off)")
	flag.Var(&axes, "axis", "latency axis, e.g. L1D=1,2,3,4 (repeatable)")
	flag.Parse()

	if _, err := dse.EngineMethod(*method); err != nil {
		fmt.Fprintln(os.Stderr, "rpexplore:", err)
		os.Exit(2)
	}
	if *par < 1 {
		fmt.Fprintf(os.Stderr, "rpexplore: -parallelism must be at least 1, got %d\n", *par)
		os.Exit(2)
	}
	// -chunk 0 is the unset default (automatic sizing); an explicit
	// non-positive chunk is an error, not something to silently clamp.
	chunkSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "chunk" {
			chunkSet = true
		}
	})
	if chunkSet && *chunk < 1 {
		fmt.Fprintf(os.Stderr, "rpexplore: -chunk must be at least 1, got %d (omit the flag for automatic sizing)\n", *chunk)
		os.Exit(2)
	}
	if *batch < 0 {
		fmt.Fprintf(os.Stderr, "rpexplore: -batch must be non-negative, got %d (0 autotunes the width)\n", *batch)
		os.Exit(2)
	}
	if *auditFraction < 0 || *auditFraction > 1 {
		fmt.Fprintf(os.Stderr, "rpexplore: -audit-fraction must be in [0, 1], got %g\n", *auditFraction)
		os.Exit(2)
	}
	if *auditOracle != "sim" && *auditOracle != "graph" {
		fmt.Fprintf(os.Stderr, "rpexplore: -audit-oracle must be sim or graph, got %q\n", *auditOracle)
		os.Exit(2)
	}
	if *auditDrift < 0 {
		fmt.Fprintf(os.Stderr, "rpexplore: -audit-drift must be non-negative, got %g\n", *auditDrift)
		os.Exit(2)
	}

	au := auditFlags{
		fraction: *auditFraction,
		seed:     *auditSeed,
		oracle:   *auditOracle,
		drift:    *auditDrift,
		out:      *auditOut,
	}
	sf := searchFlags{out: *searchOut, selfcheck: *searchSelfcheck}
	if *search != "" {
		spec, err := dse.ParseSearchSpec(*search)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpexplore:", err)
			os.Exit(2)
		}
		// -target doubles as the budget of a target search whose spec has no
		// cpi key; with any other mode it selects the exhaustive ranking
		// report, which a search never prints.
		if spec.Mode == dse.SearchTarget && spec.TargetCPI == 0 {
			spec.TargetCPI = *target
		}
		if spec.Mode == dse.SearchTarget && spec.TargetCPI == 0 {
			fmt.Fprintln(os.Stderr, "rpexplore: a target search needs a cpi budget (spec key cpi, or -target)")
			os.Exit(2)
		}
		if spec.Mode != dse.SearchTarget && *target > 0 {
			fmt.Fprintf(os.Stderr, "rpexplore: -target with a %s search is meaningless; use -search target\n", spec.Mode)
			os.Exit(2)
		}
		if err := spec.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "rpexplore:", err)
			os.Exit(2)
		}
		if au.fraction > 0 {
			fmt.Fprintln(os.Stderr, "rpexplore: search optima are verified online through -audit-oracle; -audit-fraction applies to exhaustive sweeps")
			os.Exit(2)
		}
		if *progress || *progressJSON {
			fmt.Fprintln(os.Stderr, "rpexplore: -progress and -progress-json need a fixed point count; a search probes lazily")
			os.Exit(2)
		}
		sf.spec = spec
	} else if *searchOut != "" || *searchSelfcheck {
		fmt.Fprintln(os.Stderr, "rpexplore: -search-out and -search-selfcheck need -search")
		os.Exit(2)
	}
	if *progress && *progressJSON {
		fmt.Fprintln(os.Stderr, "rpexplore: -progress and -progress-json are mutually exclusive")
		os.Exit(2)
	}
	if err := run(*app, axes, *method, *target, *top, *n, *par, *chunk, *batch, *checkpoint, *traceOut, *progress, *progressJSON, *lossless, au, sf); err != nil {
		fmt.Fprintln(os.Stderr, "rpexplore:", err)
		os.Exit(1)
	}
}

// auditFlags bundles the shadow-audit CLI options.
type auditFlags struct {
	fraction float64
	seed     uint64
	oracle   string
	drift    float64
	out      string
}

func run(app string, axes axisFlags, method string, target float64, top, n, par, chunk, batch int, checkpoint, traceOut string, progress, progressJSON, lossless bool, au auditFlags, sf searchFlags) error {
	if len(axes) == 0 {
		axes = axisFlags{
			{Event: stacks.L1D, Values: []float64{1, 2, 3, 4}},
			{Event: stacks.FpAdd, Values: []float64{2, 4, 6}},
			{Event: stacks.FpMul, Values: []float64{2, 4, 6}},
		}
	}
	sp := dse.Space{Axes: axes}
	if err := sp.Validate(); err != nil {
		return err
	}
	if _, exact := sp.SizeSaturating(); !exact && sf.spec == nil {
		return fmt.Errorf("the axes span more design points than fit in an int; a -search mode explores such spaces lazily")
	}
	r := experiments.NewRunner(n)
	if lossless {
		// One whole-trace segment, no path cap, no merging: the analysis
		// carries every path and predicts exactly what the graph model does.
		r.Opts.DisableMerge = true
		r.Opts.MaxStacks = 0
		r.Opts.SegmentLength = n
	}
	a, err := r.App(app)
	if err != nil {
		return err
	}
	eng, err := dse.NewEngine(method, dse.EngineInputs{Analysis: a.Analysis, Graph: a.Graph, Cfg: r.Cfg, UOps: a.UOps})
	if err != nil {
		return err
	}
	if sf.spec != nil {
		return runSearch(&sp, sf, r, a, app, method, eng, par, batch, checkpoint, traceOut, au)
	}
	points := sp.Enumerate(r.Cfg.Lat)
	opts := dse.ExploreOptions{Parallelism: par, ChunkSize: chunk, BatchSize: batch,
		Setup: a.SimTime + a.AnalyzeTime, NeedFingerprint: au.fraction > 0}
	if checkpoint != "" {
		// A finished exploration deletes its chunk files: they exist to
		// survive crashes, and a report on stdout supersedes them. Failed or
		// interrupted runs keep them for the next -checkpoint resume.
		opts.Checkpoint = &dse.Checkpoint{Dir: checkpoint, RemoveOnSuccess: true}
	}
	var prog *obs.Progress
	var progJSON *journal.NDJSON
	if traceOut != "" || progress || progressJSON {
		var topts []obs.Option
		if progress {
			prog = obs.NewProgress(os.Stderr, len(points), 0)
			topts = append(topts, obs.WithOnEnd(prog.Observe))
		}
		if progressJSON {
			progJSON = journal.NewNDJSON(os.Stderr, len(points), 0, nil)
			topts = append(topts, obs.WithOnEnd(progJSON.Observe))
		}
		// One span per chunk plus the root and any resume markers: sizing
		// the ring to the point count can never drop a record.
		opts.Tracer = obs.NewTracer(len(points)+16, topts...)
	}
	workers := max(par, 1)
	if workers > len(points) {
		workers = len(points) // the sweep never runs more workers than points
	}
	noun := "workers"
	if workers == 1 {
		noun = "worker"
	}
	fmt.Printf("%s: exploring %d latency points with %s (%d %s)\n",
		app, len(points), method, workers, noun)

	rep, err := dse.Explore(eng, points, opts)
	if err != nil {
		return err
	}
	if prog != nil {
		prog.Flush()
	}
	if progJSON != nil {
		progJSON.Close("done")
	}
	if traceOut != "" {
		if err := writeTrace(traceOut, opts.Tracer); err != nil {
			return err
		}
	}
	elapsed := rep.Wall
	if rep.Resumed > 0 {
		fmt.Printf("checkpoint: resumed %d of %d points from %s\n", rep.Resumed, len(points), checkpoint)
	}
	if rep.Batch > 1 {
		fmt.Printf("batch: %d design points per model pass\n", rep.Batch)
	}

	// The audit reads rep.Results by index, so it runs before the ranking
	// sort below reorders them.
	if au.fraction > 0 {
		if err := runAudit(rep, r, a, method, au, par); err != nil {
			return err
		}
	}

	uops := float64(len(a.Trace.Records))
	results := rep.Results
	sort.Slice(results, func(i, j int) bool { return results[i].Cycles < results[j].Cycles })
	meeting := len(results)
	if target > 0 {
		meeting = len(dse.BestUnder(results, target*uops))
		fmt.Printf("%d points meet CPI target %.3f\n", meeting, target)
	}
	if top > len(results) {
		top = len(results)
	}
	if len(rep.Workers) > 1 {
		var busiest time.Duration
		for _, wt := range rep.Workers {
			if wt.Busy > busiest {
				busiest = wt.Busy
			}
		}
		fmt.Printf("sweep: %v wall over %d workers (busiest %v, per-point %v)\n",
			elapsed.Round(time.Microsecond), len(rep.Workers),
			busiest.Round(time.Microsecond), rep.PerPoint)
	}
	fmt.Printf("\nbest %d points (of %d, explored in %v):\n", top, len(results), elapsed.Round(time.Millisecond))
	for _, res := range results[:top] {
		var mods []string
		for _, ax := range axes {
			mods = append(mods, fmt.Sprintf("%s=%.0f", ax.Event, res.Lat[ax.Event]))
		}
		fmt.Printf("  CPI %.4f  %s\n", res.Cycles/uops, strings.Join(mods, " "))
	}
	return nil
}

// auditOracle is the one ground-truth recipe behind -audit-oracle, shared
// by the shadow audit of exhaustive sweeps and the online verification of
// search optima. It mirrors how the engine produced its numbers: the sim
// engine is re-simulated cold (exactly what its lanes run per point, so its
// self-audit is bitwise zero), the model engines are checked against a
// simulator warmed with the same code, data and µop prefix the analysis
// substrate saw. -audit-oracle graph swaps in the dependence-graph model,
// the exact reference for a -lossless RpStacks analysis.
func auditOracle(r *experiments.Runner, a *experiments.App, method string, au auditFlags) audit.Oracle {
	switch {
	case au.oracle == "graph":
		return &audit.GraphOracle{Graph: a.Graph}
	case method == "sim":
		return &audit.SimOracle{Cfg: r.Cfg, UOps: a.UOps}
	}
	return &audit.SimOracle{
		Cfg:       r.Cfg,
		CodeLines: a.CodeLines,
		DataLines: a.DataLines,
		Warm:      a.WarmUOps,
		UOps:      a.UOps,
	}
}

// runAudit shadow-audits the finished sweep against auditOracle and prints
// its summary.
func runAudit(rep *dse.Report, r *experiments.Runner, a *experiments.App, method string, au auditFlags, par int) error {
	oracle := auditOracle(r, a, method, au)
	var decompose func(*stacks.Latencies) stacks.Stack
	switch method {
	case "rpstacks":
		decompose = audit.RpStacksDecompose(a.Analysis)
	case "graph":
		decompose = audit.GraphDecompose(a.Graph)
	}
	arep, err := audit.Run(rep, oracle, decompose, audit.Options{
		Fraction:    au.fraction,
		Seed:        au.seed,
		DriftPct:    au.drift,
		Parallelism: par,
		Logger:      slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	if err != nil {
		return err
	}
	fmt.Println(arep.Summary())
	for _, p := range arep.Worst {
		fmt.Printf("  worst: point %d error %.4f%% (class %s)  %s\n",
			p.Index, p.ErrorPct, p.WorstClass, p.Config())
	}
	if au.out != "" {
		payload, err := json.MarshalIndent(arep, "", "  ")
		if err != nil {
			return fmt.Errorf("encoding audit report: %w", err)
		}
		if err := os.WriteFile(au.out, append(payload, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing audit report: %w", err)
		}
		fmt.Fprintf(os.Stderr, "audit: wrote %s\n", au.out)
	}
	return nil
}

// writeTrace exports the tracer's flight recorder as Chrome trace-event JSON
// — shared by the exhaustive and search paths of -trace-out.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	if err := obs.WriteChromeTrace(f, tr.Snapshot()); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "trace: wrote %s\n", path)
	return nil
}
