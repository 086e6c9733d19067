package core

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/stacks"
	"repro/internal/workload"
)

// batchSubstrate simulates a workload, runs the RpStacks pipeline, and
// randomizes a list of latency design points around the baseline.
func batchSubstrate(t *testing.T, name string, seed int64, n, npts int) (*Analysis, []stacks.Latencies) {
	t.Helper()
	cfg := config.Baseline()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	uops := workload.Stream(prof, seed, n)
	sim, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(uops)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(tr, &cfg.Structure, &cfg.Lat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	knobs := []stacks.Event{stacks.L1D, stacks.L2D, stacks.MemD, stacks.Branch, stacks.IntMul, stacks.FpAdd, stacks.FpMul}
	pts := make([]stacks.Latencies, npts)
	for i := range pts {
		pts[i] = cfg.Lat
		for _, e := range knobs {
			// Non-integral latencies stress the float64 dot products whose
			// summation order the batch path must reproduce exactly.
			pts[i][e] *= 0.5 + 3*rng.Float64()
		}
	}
	return a, pts
}

// TestBatchPredictorMatchesScalar is the batch-vs-scalar differential for the
// RpStacks engine: for every lane width — one, odd widths that force ragged
// final batches, the autotuner's candidates, and the whole list in one batch
// — BatchPredictor.Predict must reproduce Analysis.Predict with exact float64
// equality (same event order within a stack, same strict-greater winner per
// segment, same segment-order summation), not approximate closeness. Run it
// under -race: predictors share one Analysis.
func TestBatchPredictorMatchesScalar(t *testing.T) {
	a, pts := batchSubstrate(t, "416.gamess", 11, 12000, 100)
	want := make([]float64, len(pts))
	for i := range pts {
		want[i] = a.Predict(&pts[i])
	}
	for _, k := range []int{1, 2, 3, 7, 8, 64, len(pts)} {
		bp := a.NewBatchPredictor(k)
		if bp.k != k {
			t.Fatalf("k=%d: width %d", k, bp.k)
		}
		out := make([]float64, k)
		for lo := 0; lo < len(pts); lo += k {
			hi := lo + k
			if hi > len(pts) {
				hi = len(pts) // ragged final batch
			}
			bp.Predict(pts[lo:hi], out[:hi-lo])
			for i := lo; i < hi; i++ {
				if out[i-lo] != want[i] {
					t.Fatalf("k=%d point %d: batch %v != scalar %v", k, i, out[i-lo], want[i])
				}
			}
		}
	}
}

// TestPredictBatchConvenience checks one-shot batches: the whole list at
// once, the empty batch, and a batch wider than the point list.
func TestPredictBatchConvenience(t *testing.T) {
	a, pts := batchSubstrate(t, "429.mcf", 5, 6000, 7)
	got := make([]float64, len(pts))
	a.NewBatchPredictor(len(pts)).Predict(pts, got)
	for i := range pts {
		if want := a.Predict(&pts[i]); got[i] != want {
			t.Fatalf("point %d: batch %v != scalar %v", i, got[i], want)
		}
	}
	a.NewBatchPredictor(1).Predict(nil, nil) // the empty batch is a no-op
	// An oversized predictor evaluating a short batch, then a shorter reuse.
	bp := a.NewBatchPredictor(64)
	out := make([]float64, 64)
	bp.Predict(pts, out[:len(pts)])
	for i := range pts {
		if want := a.Predict(&pts[i]); out[i] != want {
			t.Fatalf("wide predictor, point %d: batch %v != scalar %v", i, out[i], want)
		}
	}
	bp.Predict(pts[5:], out[:2])
	for i, p := 0, 5; p < len(pts); i, p = i+1, p+1 {
		if want := a.Predict(&pts[p]); out[i] != want {
			t.Fatalf("reused predictor, point %d: batch %v != scalar %v", p, out[i], want)
		}
	}
}

// TestBatchPredictorPanics pins the contract violations Predict rejects.
func TestBatchPredictorPanics(t *testing.T) {
	a, pts := batchSubstrate(t, "456.hmmer", 3, 3000, 4)
	bp := a.NewBatchPredictor(2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	out := make([]float64, 4)
	mustPanic("batch wider than K", func() { bp.Predict(pts, out) })
	mustPanic("short output buffer", func() { bp.Predict(pts[:2], out[:1]) })
	if w := a.NewBatchPredictor(-3).k; w != 1 {
		t.Errorf("negative lane count resolves to width %d, want 1", w)
	}
}

// TestBatchPredictorAllocFree pins the sweep-engine budget on the RpStacks
// side: once a BatchPredictor exists, re-predicting batches allocates
// nothing.
func TestBatchPredictorAllocFree(t *testing.T) {
	a, pts := batchSubstrate(t, "456.hmmer", 9, 3000, 8)
	bp := a.NewBatchPredictor(len(pts))
	out := make([]float64, len(pts))
	bp.Predict(pts, out) // warm up
	var sink float64
	if n := testing.AllocsPerRun(50, func() {
		bp.Predict(pts, out)
		sink += out[0]
	}); n != 0 {
		t.Errorf("Predict allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		bp.Predict(pts[:3], out[:3])
		sink += out[2]
	}); n != 0 {
		t.Errorf("ragged Predict allocates %.1f per run, want 0", n)
	}
	_ = sink
}
