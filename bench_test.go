package repro

// One benchmark per table and figure of the paper's evaluation, plus the
// micro-benchmarks behind the cost model. The figure benchmarks share a
// cached Runner (simulations and analyses are reused across iterations), so
// their value is the reported metrics — err%, crossover, speedup — rather
// than ns/op; the Table I/II and Predict benchmarks measure real throughput.
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkFig11b -benchmem

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/stacks"
	"repro/internal/store"
	"repro/internal/workload"
)

// benchMicroOps keeps whole-suite benchmarks tractable on one core.
const benchMicroOps = 8000

var (
	runnerOnce sync.Once
	benchR     *experiments.Runner
)

func benchRunner() *experiments.Runner {
	runnerOnce.Do(func() { benchR = experiments.NewRunner(benchMicroOps) })
	return benchR
}

// --- Table II: the baseline simulator ---------------------------------

// BenchmarkTableIIBaselineSim measures the cycle-level simulator's
// throughput on the Table II configuration.
func BenchmarkTableIIBaselineSim(b *testing.B) {
	prof, _ := workload.ByName("416.gamess")
	uops := workload.Stream(prof, 1, 20000)
	cfg := config.Baseline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := cpu.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(uops); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(uops)*b.N)/b.Elapsed().Seconds()/1e6, "Mµops/s")
}

// --- Table I: the dependence-graph model -------------------------------

// BenchmarkTableIGraphBuild measures dependence-graph construction from a
// trace (all Table I constraints).
func BenchmarkTableIGraphBuild(b *testing.B) {
	prof, _ := workload.ByName("416.gamess")
	uops := workload.Stream(prof, 1, 20000)
	cfg := config.Baseline()
	s, err := cpu.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := s.Run(uops)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(uops)*b.N)/b.Elapsed().Seconds()/1e6, "Mµops/s")
}

// BenchmarkGraphLongestPath measures one Fields-style reconstruction pass.
func BenchmarkGraphLongestPath(b *testing.B) {
	prof, _ := workload.ByName("416.gamess")
	uops := workload.Stream(prof, 1, 20000)
	cfg := config.Baseline()
	s, _ := cpu.New(cfg)
	tr, err := s.Run(uops)
	if err != nil {
		b.Fatal(err)
	}
	g, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.LongestPath(&cfg.Lat)
	}
}

// BenchmarkAnalyze measures the full RpStacks generation pipeline
// (segmentation + traversal + reduction).
func BenchmarkAnalyze(b *testing.B) {
	prof, _ := workload.ByName("416.gamess")
	uops := workload.Stream(prof, 1, 10000)
	cfg := config.Baseline()
	s, _ := cpu.New(cfg)
	tr, err := s.Run(uops)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(tr, &cfg.Structure, &cfg.Lat, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(uops)*b.N)/b.Elapsed().Seconds()/1e3, "kµops/s")
}

// BenchmarkPredictPerPoint measures one RpStacks design-point prediction —
// the constant that makes Figure 13 flat.
func BenchmarkPredictPerPoint(b *testing.B) {
	prof, _ := workload.ByName("416.gamess")
	uops := workload.Stream(prof, 1, 10000)
	cfg := config.Baseline()
	s, _ := cpu.New(cfg)
	tr, err := s.Run(uops)
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.Analyze(tr, &cfg.Structure, &cfg.Lat, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	l := cfg.Lat.With(stacks.L1D, 2).With(stacks.FpAdd, 3)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += a.Predict(&l)
	}
	_ = sink
}

// BenchmarkSimilarity measures the modified cosine similarity kernel
// (Figure 9).
func BenchmarkSimilarity(b *testing.B) {
	cfg := config.Baseline()
	var x, y stacks.Stack
	x.Add(stacks.L1D, 120)
	x.Add(stacks.FpAdd, 40)
	x.Add(stacks.Base, 300)
	y.Add(stacks.L1D, 100)
	y.Add(stacks.FpMul, 25)
	y.Add(stacks.Base, 290)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += stacks.Similarity(&x, &y, &cfg.Lat)
	}
	_ = sink
}

// --- Figures ------------------------------------------------------------

// BenchmarkFig2aSimulationSpeed reports the measured host speeds behind
// Figure 2a.
func BenchmarkFig2aSimulationSpeed(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig2("416.gamess")
		if err != nil {
			b.Fatal(err)
		}
		measured := 0
		for _, row := range f.Rows {
			if !row.Measured {
				continue
			}
			// Metric units must be single tokens: the first measured row
			// is the plain simulator, the second is RpStacks end to end.
			unit := "sim-MIPS"
			if measured > 0 {
				unit = "rpstacks-MIPS"
			}
			b.ReportMetric(row.MIPS, unit)
			measured++
		}
	}
}

// BenchmarkFig2bExplorationScaling reports the exploration-time speedup at
// 100 and 1000 design points.
func BenchmarkFig2bExplorationScaling(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig2("416.gamess")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Speedup(100), "speedup@100")
		b.ReportMetric(f.Speedup(1000), "speedup@1000")
	}
}

// BenchmarkFig5PathStacks regenerates the path-stack panel and reports how
// few representative stacks survive reduction.
func BenchmarkFig5PathStacks(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig5("416.gamess")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(f.TotalStacks), "stacks")
	}
}

func benchFig6(b *testing.B, app string) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig6(app)
		if err != nil {
			b.Fatal(err)
		}
		var rpWorst, cpWorst, fmWorst float64
		for j := range f.Scenarios {
			rp, cp, fm := f.Scenarios[j].Err()
			rpWorst = max(rpWorst, rp)
			cpWorst = max(cpWorst, cp)
			fmWorst = max(fmWorst, fm)
		}
		b.ReportMetric(float64(f.Space), "points")
		b.ReportMetric(rpWorst, "rp-maxerr%")
		b.ReportMetric(cpWorst, "cp1-maxerr%")
		b.ReportMetric(fmWorst, "fmt-maxerr%")
	}
}

// BenchmarkFig6aGamessExploration regenerates the 416.gamess scenario.
func BenchmarkFig6aGamessExploration(b *testing.B) { benchFig6(b, "416.gamess") }

// BenchmarkFig6bLeslie3dExploration regenerates the 437.leslie3d scenario.
func BenchmarkFig6bLeslie3dExploration(b *testing.B) { benchFig6(b, "437.leslie3d") }

// BenchmarkFig6cExplorationCoverage reports coverage within a 400-simulation
// budget.
func BenchmarkFig6cExplorationCoverage(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig6c("416.gamess", 400)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(f.Rows[len(f.Rows)-1].Points), "rp-points")
	}
}

// BenchmarkFig10GraphModelAccuracy reports the graph-vs-simulator error
// distribution across the suite.
func BenchmarkFig10GraphModelAccuracy(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig10(nil)
		if err != nil {
			b.Fatal(err)
		}
		var med, worst float64
		for _, row := range f.Rows {
			med += row.Summary.Median
			worst = max(worst, row.Summary.Max)
		}
		b.ReportMetric(med/float64(len(f.Rows)), "median-err%")
		b.ReportMetric(worst, "max-err%")
	}
}

func benchFig11(b *testing.B, label string, scale float64) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig11(label, scale)
		if err != nil {
			b.Fatal(err)
		}
		rp, cp, fm := f.Means()
		b.ReportMetric(rp, "rp-err%")
		b.ReportMetric(cp, "cp1-err%")
		b.ReportMetric(fm, "fmt-err%")
	}
}

// BenchmarkFig11aHalfLatency regenerates Figure 11a (latencies halved).
func BenchmarkFig11aHalfLatency(b *testing.B) { benchFig11(b, "a", 0.5) }

// BenchmarkFig11bAggressive regenerates Figure 11b (latencies to 10~25%).
func BenchmarkFig11bAggressive(b *testing.B) { benchFig11(b, "b", 0.15) }

// BenchmarkFig12BaselineCPIStacks regenerates the suite CPI stacks and
// reports the mean baseline CPI.
func BenchmarkFig12BaselineCPIStacks(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		var cpi float64
		for _, row := range f.Rows {
			cpi += row.CPI
		}
		b.ReportMetric(cpi/float64(len(f.Rows)), "mean-CPI")
	}
}

// BenchmarkFig13ExplorationOverhead reports the measured crossover point
// and the speedup at 1000 design points (the paper's 38-point crossover and
// 26x headline).
func BenchmarkFig13ExplorationOverhead(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig13([]string{"416.gamess", "429.mcf", "456.hmmer"})
		if err != nil {
			b.Fatal(err)
		}
		cross, speed := f.MeanCrossover()
		b.ReportMetric(cross, "crossover-points")
		b.ReportMetric(speed, "speedup@1000")
	}
}

// BenchmarkFig14ParameterSensitivity sweeps a reduced parameter grid and
// reports the accuracy cost of disabling uniqueness preservation.
func BenchmarkFig14ParameterSensitivity(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig14([]string{"416.gamess", "437.leslie3d"},
			[]int{1000, 5000}, []float64{0.7})
		if err != nil {
			b.Fatal(err)
		}
		var on, off float64
		for _, p := range f.Points {
			if p.SegmentLength != 5000 || p.Threshold != 0.7 {
				continue
			}
			if p.Unique {
				on = p.MaxErr
			} else {
				off = p.MaxErr
			}
		}
		b.ReportMetric(on, "maxerr-unique-on%")
		b.ReportMetric(off, "maxerr-unique-off%")
	}
}

// BenchmarkExploreRpStacks1000 sweeps ~1000 latency points through a
// prebuilt analysis, the inner loop of the paper's headline claim.
func BenchmarkExploreRpStacks1000(b *testing.B) {
	r := benchRunner()
	a, err := r.App("416.gamess")
	if err != nil {
		b.Fatal(err)
	}
	sp := dse.Space{Axes: []dse.Axis{
		{Event: stacks.L1D, Values: []float64{1, 2, 3, 4}},
		{Event: stacks.L2D, Values: []float64{6, 9, 12, 15, 18}},
		{Event: stacks.FpAdd, Values: []float64{2, 3, 4, 5, 6}},
		{Event: stacks.FpMul, Values: []float64{2, 4, 6}},
		{Event: stacks.MemD, Values: []float64{66, 100, 133}},
	}}
	points := sp.Enumerate(r.Cfg.Lat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dse.Explore(dse.RpStacksEngine(a.Analysis), points, dse.ExploreOptions{})
	}
	b.ReportMetric(float64(len(points)), "points")
}

// --- Serial / parallel / batched sweep triplets --------------------------
//
// Each triplet runs the identical sweep three ways: serially with the scalar
// per-point evaluator (BatchSize 1), sharded over GOMAXPROCS scalar workers,
// and batched (K design points per model pass, serial and sharded). On a
// multicore host the parallel member's ns/op should beat its serial sibling
// roughly by the worker count, and the batched members beat their scalar
// siblings at equal worker count by amortizing model traffic across lanes
// (compare with `go test -bench='ExploreGraph(Serial|Parallel|Batched)'
// -benchmem`). All members produce bit-identical Results — the triplets
// measure execution strategy only. The graph members also demonstrate the
// evaluator reuse: allocations stay O(workers) per sweep instead of one
// O(nodes) distance buffer per design point.

// benchSweepSpace is the point list the sweep pairs walk.
func benchSweepSpace(base stacks.Latencies) []stacks.Latencies {
	sp := dse.Space{Axes: []dse.Axis{
		{Event: stacks.L1D, Values: []float64{1, 2, 3, 4}},
		{Event: stacks.L2D, Values: []float64{6, 12, 18}},
		{Event: stacks.FpAdd, Values: []float64{2, 4, 6}},
		{Event: stacks.MemD, Values: []float64{66, 133}},
	}}
	return sp.Enumerate(base)
}

func benchExploreGraph(b *testing.B, workers, batch int) {
	r := benchRunner()
	a, err := r.App("416.gamess")
	if err != nil {
		b.Fatal(err)
	}
	points := benchSweepSpace(r.Cfg.Lat)
	opts := dse.ExploreOptions{Parallelism: workers, BatchSize: batch}
	b.ReportAllocs()
	b.ResetTimer()
	var width int
	for i := 0; i < b.N; i++ {
		rep, err := dse.ExploreGraphOpts(a.Graph, points, opts)
		if err != nil {
			b.Fatal(err)
		}
		width = rep.Batch
	}
	b.ReportMetric(float64(len(points)), "points")
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(float64(width), "lanes")
}

// BenchmarkExploreGraphSerial is the one-worker scalar graph-reconstruction
// sweep (BatchSize 1: one pass over the graph per design point).
func BenchmarkExploreGraphSerial(b *testing.B) { benchExploreGraph(b, 1, 1) }

// BenchmarkExploreGraphParallel is the same scalar sweep sharded over
// GOMAXPROCS workers, one reusable evaluator each.
func BenchmarkExploreGraphParallel(b *testing.B) {
	benchExploreGraph(b, runtime.GOMAXPROCS(0), 1)
}

// BenchmarkExploreGraphBatched is the one-worker batched sweep: K design
// points per pass over the graph (autotuned width). Its speedup over
// BenchmarkExploreGraphSerial is the per-worker gain of lane batching.
func BenchmarkExploreGraphBatched(b *testing.B) { benchExploreGraph(b, 1, 0) }

// BenchmarkExploreGraphBatchedParallel stacks both axes: GOMAXPROCS workers,
// each evaluating K lanes per graph pass.
func BenchmarkExploreGraphBatchedParallel(b *testing.B) {
	benchExploreGraph(b, runtime.GOMAXPROCS(0), 0)
}

func benchExploreRpStacksSweep(b *testing.B, workers, batch int) {
	r := benchRunner()
	a, err := r.App("416.gamess")
	if err != nil {
		b.Fatal(err)
	}
	points := benchSweepSpace(r.Cfg.Lat)
	opts := dse.ExploreOptions{Parallelism: workers, BatchSize: batch}
	b.ReportAllocs()
	b.ResetTimer()
	var width int
	for i := 0; i < b.N; i++ {
		rep, err := dse.ExploreRpStacksOpts(a.Analysis, points, opts)
		if err != nil {
			b.Fatal(err)
		}
		width = rep.Batch
	}
	b.ReportMetric(float64(len(points)), "points")
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(float64(width), "lanes")
}

// BenchmarkExploreRpStacksSerial is the one-worker scalar RpStacks sweep.
func BenchmarkExploreRpStacksSerial(b *testing.B) { benchExploreRpStacksSweep(b, 1, 1) }

// BenchmarkExploreRpStacksParallel shards the scalar RpStacks sweep over
// GOMAXPROCS workers sharing the read-only analysis.
func BenchmarkExploreRpStacksParallel(b *testing.B) {
	benchExploreRpStacksSweep(b, runtime.GOMAXPROCS(0), 1)
}

// BenchmarkExploreRpStacksBatched is the one-worker batched RpStacks sweep:
// the representative stacks are re-weighted for K design points per pass.
func BenchmarkExploreRpStacksBatched(b *testing.B) { benchExploreRpStacksSweep(b, 1, 0) }

// BenchmarkExploreRpStacksBatchedParallel stacks both axes for the RpStacks
// engine.
func BenchmarkExploreRpStacksBatchedParallel(b *testing.B) {
	benchExploreRpStacksSweep(b, runtime.GOMAXPROCS(0), 0)
}

// --- Fleet: coordinator/worker chunk leasing --------------------------

// benchFleetGraph runs the fig13-style graph sweep through an in-process
// fleet: one coordinator behind httptest, nworkers workers (one evaluator
// goroutine each, so scaling comes from the fleet, not intra-worker
// parallelism) publishing chunk blobs into a shared store root. The first
// sweep is run untimed to pay each worker's one-time workload rebuild, the
// same cost rpworker amortizes across a process lifetime.
//
// On a multi-core host the two-worker wall-clock approaches half the
// one-worker number (chunk evaluations run truly in parallel); on a
// single-core host the remaining gain comes from overlapping one worker's
// blob publication and lease round-trips with the other's evaluation.
func benchFleetGraph(b *testing.B, nworkers int) {
	r := benchRunner()
	a, err := r.App("416.gamess")
	if err != nil {
		b.Fatal(err)
	}
	sp := dse.Space{Axes: []dse.Axis{
		{Event: stacks.L1D, Values: []float64{1, 2, 3, 4}},
		{Event: stacks.L2D, Values: []float64{6, 12, 18}},
		{Event: stacks.FpAdd, Values: []float64{2, 4, 6}},
		{Event: stacks.MemD, Values: []float64{66, 133}},
	}}
	points := sp.Enumerate(r.Cfg.Lat)
	fp, err := dse.SweepFingerprintGraph(a.Graph, points)
	if err != nil {
		b.Fatal(err)
	}
	shared, err := store.OpenShared(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Shared:   shared,
		LeaseTTL: time.Minute,
		WaitHint: time.Millisecond,
	})
	ts := httptest.NewServer(coord)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < nworkers; i++ {
		w := fleet.NewWorker(fleet.WorkerConfig{
			CoordinatorURL: ts.URL,
			Shared:         shared,
			Concurrency:    1,
			ID:             fmt.Sprintf("bench-w%d", i),
			PollInterval:   time.Millisecond,
		})
		go func() { _ = w.Run(ctx) }()
	}
	sw := fleet.Sweep{
		Spec: fleet.SweepSpec{
			Workload: "416.gamess",
			Seed:     42,
			MicroOps: benchMicroOps,
			Engine:   "graph",
			Axes:     fleet.FormatAxes(sp.Axes),
		},
		Points:      points,
		Fingerprint: fp,
		ChunkSize:   9, // 72 points -> 8 chunks
	}
	if _, err := coord.Run(ctx, sw); err != nil { // untimed worker warmup
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Run(ctx, sw); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(points)), "points")
	b.ReportMetric(float64(nworkers), "fleet_workers")
}

// BenchmarkFleetGraphWorkers1 is the single-worker fleet baseline: all lease
// and blob-publication overhead, no parallelism.
func BenchmarkFleetGraphWorkers1(b *testing.B) { benchFleetGraph(b, 1) }

// BenchmarkFleetGraphWorkers2 doubles the fleet; its wall-clock speedup over
// BenchmarkFleetGraphWorkers1 is the fleet's scaling on one host.
func BenchmarkFleetGraphWorkers2(b *testing.B) { benchFleetGraph(b, 2) }
