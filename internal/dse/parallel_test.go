package dse

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/stacks"
	"repro/internal/workload"
)

// prepareWorkload simulates a seeded random workload once and builds both
// prediction engines plus a randomized design-point list around the baseline.
func prepareWorkload(t *testing.T, name string, seed int64, n, points int) (*config.Config, *depgraph.Graph, *core.Analysis, []stacks.Latencies) {
	t.Helper()
	cfg := config.Baseline()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	uops := workload.Stream(prof, seed, n)
	s, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run(uops)
	if err != nil {
		t.Fatal(err)
	}
	g, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(tr, &cfg.Structure, &cfg.Lat, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]stacks.Latencies, points)
	for i := range pts {
		l := cfg.Lat
		for e := stacks.Event(1); e < stacks.NumEvents; e++ {
			l = l.Scale(e, 0.25+rng.Float64()*1.5)
		}
		pts[i] = l
	}
	return cfg, g, a, pts
}

// sameResults asserts two sweeps produced identical Results slices: same
// order, same points, bit-identical cycle counts.
func sameResults(t *testing.T, label string, serial, parallel []Result) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s: result counts differ: %d vs %d", label, len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Lat != parallel[i].Lat {
			t.Fatalf("%s: point %d latency assignment differs", label, i)
		}
		if serial[i].Cycles != parallel[i].Cycles {
			t.Fatalf("%s: point %d cycles differ: %g vs %g",
				label, i, serial[i].Cycles, parallel[i].Cycles)
		}
	}
}

// TestParallelSweepsMatchSerial is the differential cross-engine harness: on
// seeded random workloads, the sharded sweeps of all three engines must
// return exactly the serial sweeps' Results — order and values — for every
// parallelism/chunk shape, including chunk sizes of one and larger than the
// point list.
func TestParallelSweepsMatchSerial(t *testing.T) {
	shapes := []ExploreOptions{
		{Parallelism: 2},
		{Parallelism: 3, ChunkSize: 1},
		{Parallelism: 4, ChunkSize: 5},
		{Parallelism: 8, ChunkSize: 1000},
		{Parallelism: 16},
	}
	for _, wl := range []struct {
		name string
		seed int64
	}{
		{"416.gamess", 7},
		{"429.mcf", 11},
	} {
		cfg, g, a, pts := prepareWorkload(t, wl.name, wl.seed, 4000, 24)

		grSerial, _ := ExploreGraphOpts(g, pts, ExploreOptions{})
		rpSerial, _ := ExploreRpStacksOpts(a, pts, ExploreOptions{})
		for _, opts := range shapes {
			gr, _ := ExploreGraphOpts(g, pts, opts)
			sameResults(t, wl.name+"/graph", grSerial.Results, gr.Results)
			rp, _ := ExploreRpStacksOpts(a, pts, opts)
			sameResults(t, wl.name+"/rpstacks", rpSerial.Results, rp.Results)
		}

		// The simulator engine re-runs the full timing model per point;
		// keep its differential slice small.
		prof, _ := workload.ByName(wl.name)
		simUOps := workload.Stream(prof, wl.seed, 1200)
		simPts := pts[:4]
		simSerial, err := Explore(SimEngine(cfg, simUOps), simPts, ExploreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		simPar, err := Explore(SimEngine(cfg, simUOps), simPts, ExploreOptions{Parallelism: 3, ChunkSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, wl.name+"/sim", simSerial.Results, simPar.Results)
	}
}

// TestLosslessParallelMatchesGraph checks the paper's lossless-reduction
// property under a sharded sweep: with merging disabled, the RpStacks sweep
// agrees point-for-point with graph reconstruction — now with both engines
// running Parallelism > 1.
func TestLosslessParallelMatchesGraph(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("456.hmmer")
	// Path counts grow exponentially without merging, so the exactness
	// check uses a small window (as in core's serial lossless test).
	uops := workload.Stream(prof, 3, 60)
	s, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run(uops)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.DisableMerge = true
	opts.MaxStacks = 0
	opts.SegmentLength = len(tr.Records)
	a, err := core.Analyze(tr, &cfg.Structure, &cfg.Lat, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	pts := make([]stacks.Latencies, 40)
	for i := range pts {
		l := cfg.Lat
		for e := stacks.Event(1); e < stacks.NumEvents; e++ {
			l = l.Scale(e, 0.25+rng.Float64()*1.5)
		}
		pts[i] = l
	}
	par := ExploreOptions{Parallelism: 4, ChunkSize: 3}
	rp, _ := ExploreRpStacksOpts(a, pts, par)
	gr, _ := ExploreGraphOpts(g, pts, par)
	for i := range pts {
		if int64(rp.Results[i].Cycles+0.5) != int64(gr.Results[i].Cycles) {
			t.Fatalf("point %d: lossless RpStacks %.1f != graph longest path %.0f",
				i, rp.Results[i].Cycles, gr.Results[i].Cycles)
		}
	}
}

// TestEnginesRecordSetup is the regression test for the Report.Setup fix:
// the constructors populate Setup from ExploreOptions, and Total/Crossover
// consume it without hand-patching.
func TestEnginesRecordSetup(t *testing.T) {
	_, g, a, pts := prepareWorkload(t, "456.hmmer", 9, 1500, 6)

	const setup = 250 * time.Millisecond
	gr, _ := ExploreGraphOpts(g, pts, ExploreOptions{Setup: setup})
	rp, _ := ExploreRpStacksOpts(a, pts, ExploreOptions{Setup: setup, Parallelism: 2})
	for _, rep := range []*Report{gr, rp} {
		if rep.Setup != setup {
			t.Fatalf("%s: Setup = %v, want %v", rep.Method, rep.Setup, setup)
		}
		if got := rep.Total(10); got != setup+10*rep.PerPoint {
			t.Fatalf("%s: Total(10) = %v, want setup + 10*per-point", rep.Method, got)
		}
	}
	// A zero-setup engine with the same per-point cost is immediately
	// cheaper; one carrying the setup needs points to amortize it.
	cheap := &Report{PerPoint: rp.PerPoint}
	if n := Crossover(rp, cheap, 1_000_000); n != -1 {
		t.Fatalf("engine with setup beat its zero-setup twin at %d points", n)
	}
	slowSim := &Report{PerPoint: setup / 100}
	n := Crossover(rp, slowSim, 1_000_000)
	if n < 1 {
		t.Fatalf("crossover against a slow simulator never happened (n = %d)", n)
	}
	if rp.Total(n) >= slowSim.Total(n) || (n > 1 && rp.Total(n-1) < slowSim.Total(n-1)) {
		t.Fatalf("crossover %d inconsistent with Total", n)
	}
}

// TestSweepReportShape checks the new Report bookkeeping: Wall covers the
// loop, per-worker points sum to the sweep size, and the worker count
// respects both Parallelism and the point count.
func TestSweepReportShape(t *testing.T) {
	_, g, _, pts := prepareWorkload(t, "470.lbm", 13, 1500, 10)

	rep, _ := ExploreGraphOpts(g, pts, ExploreOptions{Parallelism: 4, ChunkSize: 2})
	if len(rep.Workers) != 4 {
		t.Fatalf("worker timings: %d entries, want 4", len(rep.Workers))
	}
	total := 0
	for _, wt := range rep.Workers {
		total += wt.Points
	}
	if total != len(pts) {
		t.Fatalf("workers processed %d points, want %d", total, len(pts))
	}
	if rep.Wall <= 0 || rep.PerPoint <= 0 {
		t.Fatalf("loop timing not recorded: wall %v per-point %v", rep.Wall, rep.PerPoint)
	}
	// More workers than points: the pool must clamp.
	small, _ := ExploreGraphOpts(g, pts[:3], ExploreOptions{Parallelism: 64})
	if len(small.Workers) > 3 {
		t.Fatalf("worker pool not clamped to point count: %d workers", len(small.Workers))
	}
	// Empty point list: no loop, no workers needed beyond the placeholder.
	empty, _ := ExploreGraphOpts(g, nil, ExploreOptions{Parallelism: 4})
	if len(empty.Results) != 0 || empty.PerPoint != 0 {
		t.Fatalf("empty sweep produced results or per-point cost")
	}
}
