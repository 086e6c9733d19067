package dse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/isa"
	"repro/internal/stacks"
)

// laneCase is one engine under the width differentials, with the
// reference its every lane width must reproduce.
type laneCase struct {
	name string
	eng  *Engine
	pts  []stacks.Latencies
	want []Result // scalarTruth over pts
}

// scalarTruth evaluates every point alone through the engine's own scalar
// evaluator — Analysis.Predict, a depgraph.Evaluator's LongestPath, or a
// fresh cpu.Run per point — outside the sweep driver and its lanes. It is
// the reference every lane width, worker count, chunking and resume must
// reproduce bit for bit.
func scalarTruth(t *testing.T, engine string, cfg *config.Config, uops []isa.MicroOp, g *depgraph.Graph, a *core.Analysis, pts []stacks.Latencies) []Result {
	t.Helper()
	out := make([]Result, len(pts))
	for i := range pts {
		var c float64
		switch engine {
		case "rpstacks":
			c = a.Predict(&pts[i])
		case "graph":
			c = float64(g.NewEvaluator().LongestPath(&pts[i]))
		case "sim":
			pc := cfg.Clone()
			pc.Lat = pts[i]
			s, err := cpu.New(pc)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := s.Run(uops)
			if err != nil {
				t.Fatal(err)
			}
			c = float64(tr.Cycles)
		default:
			t.Fatalf("no scalar evaluator for engine %q", engine)
		}
		out[i] = Result{Lat: pts[i], Cycles: c}
	}
	return out
}

// laneCases builds all three engines with their scalar references: graph
// and rpstacks over a 4000-µop mcf trace, sim over a small hmmer stream
// (every sim point is a full re-simulation).
func laneCases(t *testing.T) []laneCase {
	t.Helper()
	cfg, g, a, pts := prepareWorkload(t, "429.mcf", 11, 4000, 30)
	simCfg, _, _, simPts := prepareWorkload(t, "456.hmmer", 3, 800, 12)
	simUOps := smallStream(t, "456.hmmer", 3, 800)
	return []laneCase{
		{"graph", GraphEngine(g), pts, scalarTruth(t, "graph", cfg, nil, g, nil, pts)},
		{"rpstacks", RpStacksEngine(a), pts, scalarTruth(t, "rpstacks", cfg, nil, nil, a, pts)},
		{"sim", SimEngine(simCfg, simUOps), simPts, scalarTruth(t, "sim", simCfg, simUOps, nil, nil, simPts)},
	}
}

// laneWidths are the explicit widths the differentials cover: scalar, the
// narrowest batch, an odd width forcing ragged final batches inside chunks,
// the default, and the whole point list.
func laneWidths(n int) []int { return []int{1, 2, 7, 16, n} }

// TestBatchedSweepsMatchScalar is the sweep-level lane differential: for all
// three engines, every explicit lane width crossed with serial, parallel and
// tiny-chunk shapes must reproduce the per-point scalar evaluators' cycles
// bit for bit — width 1 included, which runs through the same lane loop as
// the batched widths. Run under -race it also proves per-worker lanes do not
// race.
func TestBatchedSweepsMatchScalar(t *testing.T) {
	shapes := []ExploreOptions{
		{},
		{Parallelism: 4, ChunkSize: 5},
		{Parallelism: 3, ChunkSize: 1},
		{Parallelism: 8},
	}
	cases := laneCases(t)
	for _, c := range cases {
		for _, k := range laneWidths(len(c.pts)) {
			wantWidth := min(k, len(c.pts)) // explicit widths clamp to the point count
			if c.name == "sim" {
				wantWidth = 1 // re-simulation has no batched form
			}
			for si, shape := range shapes {
				shape.BatchSize = k
				rep, err := Explore(c.eng, c.pts, shape)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Batch != wantWidth {
					t.Fatalf("%s k=%d shape %d: Report.Batch = %d, want %d", c.name, k, si, rep.Batch, wantWidth)
				}
				sameResults(t, fmt.Sprintf("%s k=%d shape %d vs scalar evaluator", c.name, k, si), c.want, rep.Results)
			}
		}
	}

	// The default (autotuned) width on a sweep below the probe threshold is
	// the fixed default, and its results still match.
	gr := cases[0]
	grAuto, _ := Explore(gr.eng, gr.pts, ExploreOptions{})
	if grAuto.Batch != defaultBatchWidth {
		t.Fatalf("autotuned small sweep resolved width %d, want default %d", grAuto.Batch, defaultBatchWidth)
	}
	sameResults(t, "graph autotuned", gr.want, grAuto.Results)
}

// TestPickBatchWidth covers the autotuner's resolution rules directly:
// explicit widths clamp to the point count and bypass both the probe and the
// memory cap; small sweeps take the (capped) default without probing; large
// sweeps probe only candidates within the point count and the cap and keep
// the best per-point time.
func TestPickBatchWidth(t *testing.T) {
	noProbe := func(int) time.Duration { t.Fatal("probe called"); return 0 }
	if w := pickBatchWidth(5, 100, 0, noProbe); w != 5 {
		t.Errorf("explicit width: got %d, want 5", w)
	}
	if w := pickBatchWidth(64, 10, 0, noProbe); w != 10 {
		t.Errorf("explicit width beyond point count: got %d, want 10", w)
	}
	if w := pickBatchWidth(64, 10, 2, noProbe); w != 10 {
		t.Errorf("explicit width must ignore the memory cap: got %d, want 10", w)
	}
	if w := pickBatchWidth(0, 0, 0, noProbe); w != 1 {
		t.Errorf("empty sweep: got %d, want 1", w)
	}
	if w := pickBatchWidth(0, 100, 0, noProbe); w != defaultBatchWidth {
		t.Errorf("small sweep default: got %d, want %d", w, defaultBatchWidth)
	}
	if w := pickBatchWidth(0, 100, 2, noProbe); w != 2 {
		t.Errorf("small sweep capped default: got %d, want 2", w)
	}
	if w := pickBatchWidth(0, 1000, 0, nil); w != defaultBatchWidth {
		t.Errorf("nil probe default: got %d, want %d", w, defaultBatchWidth)
	}

	// Probing: per-point time minimized at width 16 (total time grows slower
	// than the width up to 16, then jumps).
	var probed []int
	cost := map[int]time.Duration{4: 40, 8: 56, 16: 64, 32: 1280}
	probe := func(w int) time.Duration {
		probed = append(probed, w)
		return cost[w]
	}
	if w := pickBatchWidth(0, 1000, 0, probe); w != 16 {
		t.Errorf("probed sweep: got %d, want 16", w)
	}
	// Two reps per candidate, all four candidates fit.
	if len(probed) != 8 {
		t.Errorf("probe called %d times, want 8 (2 reps x 4 candidates)", len(probed))
	}
	// The cap stops candidate enumeration.
	probed = nil
	if w := pickBatchWidth(0, 1000, 8, probe); w != 8 {
		t.Errorf("capped probe: got %d, want 8 (best per-point among {4, 8})", w)
	}
	for _, w := range probed {
		if w > 8 {
			t.Errorf("probed width %d beyond cap 8", w)
		}
	}
	// So does the point count.
	probed = nil
	if w := pickBatchWidth(0, 300, 0, func(w int) time.Duration {
		probed = append(probed, w)
		return time.Duration(w) // flat per-point cost: first candidate wins
	}); w != 4 {
		t.Errorf("flat probe: got %d, want 4", w)
	}
}

// TestBatchSizeFingerprintInvariant pins the "execution detail" contract:
// the sweep fingerprint — the identity the checkpoint store and the shadow
// auditor key on — is computed from the engine and its inputs, never from
// the lane width.
func TestBatchSizeFingerprintInvariant(t *testing.T) {
	_, g, a, pts := prepareWorkload(t, "416.gamess", 7, 3000, 12)
	for _, eng := range []struct {
		name string
		run  func(opts ExploreOptions) (*Report, error)
	}{
		{"graph", func(opts ExploreOptions) (*Report, error) { return ExploreGraphOpts(g, pts, opts) }},
		{"rpstacks", func(opts ExploreOptions) (*Report, error) { return ExploreRpStacksOpts(a, pts, opts) }},
	} {
		var want []byte
		for _, k := range []int{1, 0, 5, len(pts)} {
			rep, err := eng.run(ExploreOptions{BatchSize: k, NeedFingerprint: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Fingerprint) == 0 {
				t.Fatalf("%s k=%d: no fingerprint published", eng.name, k)
			}
			if want == nil {
				want = rep.Fingerprint
			} else if !bytes.Equal(rep.Fingerprint, want) {
				t.Fatalf("%s: fingerprint changed with BatchSize %d", eng.name, k)
			}
		}
	}
}

// TestBatchedCheckpointCrashResume is the crash differential across lane
// widths: for all three engines, a checkpointed sweep killed mid-run at one
// width and resumed at another (and at another worker count) must stitch
// together exactly the per-point scalar evaluators' cycles, under the
// engine's sweep fingerprint. The resume leg exercises the scattered-index
// gather path that only checkpointed sweeps take.
func TestBatchedCheckpointCrashResume(t *testing.T) {
	for _, c := range laneCases(t) {
		t.Run(c.name, func(t *testing.T) {
			fp, err := SweepFingerprint(c.eng, c.pts)
			if err != nil {
				t.Fatal(err)
			}
			widths := laneWidths(len(c.pts))
			for wi, k := range widths {
				const crashChunks, chunk = 2, 3
				dir := t.TempDir()
				ck := &Checkpoint{Dir: dir}
				// Crashed leg: serial, cancelled after two chunks of three —
				// at width 7 and wider each chunk is one ragged batch.
				_, err := Explore(c.eng, c.pts, ExploreOptions{
					Parallelism: 1,
					ChunkSize:   chunk,
					BatchSize:   k,
					Context:     &cancelAfter{remaining: crashChunks},
					Checkpoint:  ck,
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("k=%d: crashed run returned %v, want context.Canceled", k, err)
				}
				if got := len(chunkFiles(t, dir)); got != crashChunks {
					t.Fatalf("k=%d: crash left %d chunk files, want %d", k, got, crashChunks)
				}

				// Resumed leg: parallel, tiny chunks, the next width —
				// checkpoints written at one width must restore at any other.
				next := widths[(wi+1)%len(widths)]
				resumed, err := Explore(c.eng, c.pts, ExploreOptions{Parallelism: 4, ChunkSize: 2, BatchSize: next, Checkpoint: ck})
				if err != nil {
					t.Fatal(err)
				}
				if want := crashChunks * chunk; resumed.Resumed != want {
					t.Fatalf("k=%d->%d: resume restored %d points, want %d", k, next, resumed.Resumed, want)
				}
				if !bytes.Equal(resumed.Fingerprint, fp) {
					t.Fatalf("k=%d->%d: checkpointed sweep fingerprints differently than SweepFingerprint", k, next)
				}
				sameResults(t, fmt.Sprintf("%s k=%d->%d resume vs scalar evaluator", c.name, k, next), c.want, resumed.Results)

				// Autotuned width over the now-complete checkpoint restores all.
				full, err := Explore(c.eng, c.pts, ExploreOptions{Checkpoint: ck})
				if err != nil {
					t.Fatal(err)
				}
				if full.Resumed != len(c.pts) {
					t.Fatalf("k=%d: complete checkpoint restored %d of %d points", k, full.Resumed, len(c.pts))
				}
				sameResults(t, c.name+" fully resumed", c.want, full.Results)
			}
		})
	}
}

// TestSimIgnoresBatchSize checks the scalar-only engine contract: the sim
// engine reports Batch 1 whatever the option says and still returns the same
// measurements.
func TestSimIgnoresBatchSize(t *testing.T) {
	cfg, _, _, pts := prepareWorkload(t, "456.hmmer", 3, 800, 3)
	uops := smallStream(t, "456.hmmer", 3, 800)
	plain, err := Explore(SimEngine(cfg, uops), pts, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Explore(SimEngine(cfg, uops), pts, ExploreOptions{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Batch != 1 || batched.Batch != 1 {
		t.Fatalf("sim reported batch widths %d/%d, want 1/1", plain.Batch, batched.Batch)
	}
	sameResults(t, "sim with BatchSize set", plain.Results, batched.Results)
}
