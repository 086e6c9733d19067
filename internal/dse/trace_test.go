package dse

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fakeClock ticks one millisecond per reading, making span timestamps (and
// therefore the Chrome export) byte-stable.
func fakeClock() func() time.Duration {
	var n int64
	return func() time.Duration {
		n++
		return time.Duration(n) * time.Millisecond
	}
}

// TestChromeTraceGolden pins the exporter's byte output for a deterministic
// two-chunk sweep: serial chunked path (one worker, chunk size 2, 4 points)
// under an injected clock, so span IDs, nesting and timestamps never move.
func TestChromeTraceGolden(t *testing.T) {
	_, _, a, pts := prepareWorkload(t, "429.mcf", 11, 400, 4)
	tr := obs.NewTracer(64, obs.WithClock(fakeClock()))
	_, err := ExploreRpStacksOpts(a, pts, ExploreOptions{
		Context:   context.Background(),
		ChunkSize: 2,
		Tracer:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome trace drifted from golden (run with -update if intended):\n%s", buf.String())
	}
}

// TestTraceCoversSweepWall is the acceptance check for the exporter wiring:
// a parallel checkpointed sweep's trace must account for at least 95% of
// Report.Wall. The sweep root wraps the whole per-point loop (checkpoint
// restore included), so its duration can only exceed Wall; the chunk spans
// beneath it must jointly cover every evaluated point and the resume spans
// every restored one.
func TestTraceCoversSweepWall(t *testing.T) {
	_, g, _, pts := prepareWorkload(t, "429.mcf", 7, 600, 40)
	dir := t.TempDir()

	// First pass: evaluate half the points, then abandon the rest, leaving
	// published chunks behind for the traced run to restore.
	half := pts[:20]
	_, err := Explore(GraphEngine(g), half, ExploreOptions{Checkpoint: &Checkpoint{Dir: dir}, ChunkSize: 5, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The full point list has a different fingerprint than the half sweep,
	// so re-fingerprint trickery is not what we test here: resume the same
	// half-list sweep, then run the full list fresh with parallel workers.
	tr := obs.NewTracer(4096)
	rep2, err := Explore(GraphEngine(g), half, ExploreOptions{Checkpoint: &Checkpoint{Dir: dir}, ChunkSize: 5, Parallelism: 4, Tracer: tr, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != len(half) {
		t.Fatalf("resumed %d of %d points; test wants a fully restorable checkpoint", rep2.Resumed, len(half))
	}

	tr2 := obs.NewTracer(4096)
	rep3, err := ExploreGraphOpts(g, pts, ExploreOptions{Parallelism: 4, ChunkSize: 4, Checkpoint: &Checkpoint{Dir: filepath.Join(dir, "full")}, Tracer: tr2})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		recs    []obs.Record
		wall    time.Duration
		points  int
		resumed int
	}{
		{"resumed sweep", tr.Snapshot(), rep2.Wall, len(half), rep2.Resumed},
		{"fresh parallel sweep", tr2.Snapshot(), rep3.Wall, len(pts), 0},
	} {
		var root *obs.Record
		evaluated, restored := int64(0), int64(0)
		for i := range tc.recs {
			switch tc.recs[i].Name {
			case obs.NameSweep:
				root = &tc.recs[i]
			case obs.NameChunk:
				evaluated += tc.recs[i].Arg
			case obs.NameResume:
				restored += tc.recs[i].Arg
			}
		}
		if root == nil {
			t.Fatalf("%s: no sweep root span recorded", tc.name)
		}
		if tc.wall > 0 && float64(root.Dur) < 0.95*float64(tc.wall) {
			t.Errorf("%s: sweep span %v covers <95%% of Report.Wall %v", tc.name, root.Dur, tc.wall)
		}
		if int(evaluated) != tc.points-tc.resumed {
			t.Errorf("%s: chunk spans cover %d points, want %d", tc.name, evaluated, tc.points-tc.resumed)
		}
		if int(restored) != tc.resumed {
			t.Errorf("%s: resume spans cover %d points, want %d", tc.name, restored, tc.resumed)
		}
	}
}

// TestTracingDisabledChunkEvalAllocFree proves the acceptance criterion that
// a nil Tracer adds zero allocations to the chunk-evaluate hot loop: the
// exact span cycle sweep() wraps around eval, surrounding a real depgraph
// longest-path evaluation.
func TestTracingDisabledChunkEvalAllocFree(t *testing.T) {
	_, g, _, pts := prepareWorkload(t, "429.mcf", 3, 300, 1)
	ev := g.NewEvaluator()
	var tr *obs.Tracer
	if n := testing.AllocsPerRun(100, func() {
		sp := tr.StartChild(0, obs.CatDSE, obs.NameChunk)
		sp.SetTID(0)
		sp.SetArg(obs.ArgPoints, 1)
		_ = ev.LongestPath(&pts[0])
		sp.End()
	}); n != 0 {
		t.Errorf("disabled tracer adds %.1f allocs/run to the chunk-evaluate path, want 0", n)
	}
}

// TestFoldedExportFromSweep sanity-checks the second exporter over a real
// sweep: one root path, one chunk path, totals equal to the root duration.
func TestFoldedExportFromSweep(t *testing.T) {
	_, _, a, pts := prepareWorkload(t, "429.mcf", 5, 300, 6)
	tr := obs.NewTracer(64, obs.WithClock(fakeClock()))
	if _, err := ExploreRpStacksOpts(a, pts, ExploreOptions{Context: context.Background(), ChunkSize: 3, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteFolded(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	// Tick sequence: root start=1, chunks span 2..5, root end=6 → root dur
	// 5ms minus 2ms of children = 3ms self.
	want := "dse:sweep 3000\ndse:sweep;dse:chunk 2000\n"
	if got := buf.String(); got != want {
		t.Errorf("folded export:\n%s\nwant:\n%s", got, want)
	}
}
