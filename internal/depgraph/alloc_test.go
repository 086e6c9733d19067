package depgraph

import (
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/stacks"
	"repro/internal/workload"
)

// TestEvaluatorAllocFree pins the property the sweep engines depend on: once
// an Evaluator exists, re-evaluating the graph under new latency assignments
// allocates nothing — a parallel sweep costs O(workers) buffers, not
// O(design points). A regression here silently multiplies sweep cost by the
// point count.
func TestEvaluatorAllocFree(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("429.mcf")
	uops := workload.Stream(prof, 11, 8000)
	s, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run(uops)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	ev := g.NewEvaluator()
	// A few distinct design points, as a sweep would evaluate.
	lats := make([]stacks.Latencies, 4)
	for i := range lats {
		lats[i] = cfg.Lat
		lats[i][stacks.L2D] = float64(6 + 3*i)
		lats[i][stacks.MemD] = float64(66 + 20*i)
	}

	// Warm once so one-time buffers (CriticalPath's parent array) exist.
	ev.LongestPath(&cfg.Lat)
	ev.CriticalPath(&cfg.Lat)

	var sink int64
	if n := testing.AllocsPerRun(50, func() {
		for i := range lats {
			sink += ev.LongestPath(&lats[i])
		}
	}); n != 0 {
		t.Errorf("LongestPath allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		c, _ := ev.CriticalPath(&cfg.Lat)
		sink += c
	}); n != 0 {
		t.Errorf("CriticalPath allocates %.1f per run after warmup, want 0", n)
	}

	// The batched form carries the same budget: construction owns every
	// buffer (distance lanes, weight-class table, per-batch cycle rows), so
	// re-evaluating batches — full or ragged — allocates nothing.
	be := g.NewBatchEvaluator(len(lats))
	out := make([]int64, len(lats))
	be.LongestPaths(lats, out) // warm up
	if n := testing.AllocsPerRun(50, func() {
		be.LongestPaths(lats, out)
		sink += out[0]
	}); n != 0 {
		t.Errorf("LongestPaths allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		be.LongestPaths(lats[:3], out[:3])
		sink += out[2]
	}); n != 0 {
		t.Errorf("ragged LongestPaths allocates %.1f per run, want 0", n)
	}
	_ = sink
}
