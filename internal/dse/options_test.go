package dse

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestWorkerCountEdges pins the sweep sizing rules on the boundary shapes
// the queueing service relies on: empty point lists, more workers than
// points, and non-positive parallelism all degrade to sane pool sizes.
func TestWorkerCountEdges(t *testing.T) {
	cases := []struct {
		name        string
		parallelism int
		n           int
		want        int
	}{
		{"zero value is serial", 0, 100, 1},
		{"negative is serial", -3, 100, 1},
		{"one is serial", 1, 100, 1},
		{"clamped to point count", 8, 3, 3},
		{"empty sweep keeps one slot", 8, 0, 1},
		{"empty serial sweep keeps one slot", 0, 0, 1},
		{"exact fit", 4, 4, 4},
	}
	for _, c := range cases {
		o := ExploreOptions{Parallelism: c.parallelism}
		if got := o.workerCount(c.n); got != c.want {
			t.Errorf("%s: workerCount(%d) with Parallelism %d = %d, want %d",
				c.name, c.n, c.parallelism, got, c.want)
		}
	}
}

// TestChunkSizeEdges pins the claim-granularity rules: explicit sizes win
// even when larger than the sweep, and the automatic size keeps a floor of
// one point.
func TestChunkSizeEdges(t *testing.T) {
	cases := []struct {
		name  string
		chunk int
		n, w  int
		want  int
	}{
		{"explicit size wins", 7, 100, 4, 7},
		{"explicit larger than sweep kept", 1000, 10, 2, 1000},
		{"auto ~8 chunks per worker", 0, 640, 4, 20},
		{"auto floor of one", 0, 10, 4, 1},
		{"auto on empty sweep", 0, 0, 1, 1},
		{"auto serial", 0, 80, 1, 10},
	}
	for _, c := range cases {
		o := ExploreOptions{ChunkSize: c.chunk}
		if got := o.chunkSize(c.n, c.w); got != c.want {
			t.Errorf("%s: chunkSize(%d, %d) with ChunkSize %d = %d, want %d",
				c.name, c.n, c.w, c.chunk, got, c.want)
		}
	}
}

// TestSweepCancelledMidRun cancels a long sweep shortly after it starts and
// requires a prompt return carrying the context's error: the full sweep
// would run for minutes, so returning within seconds proves workers abandon
// the point list at the next chunk boundary rather than draining it.
func TestSweepCancelledMidRun(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 1 << 20 // at 100µs per chunk the full sweep is ~100s/worker
		opts := ExploreOptions{Parallelism: parallelism, ChunkSize: 1, Context: ctx}
		eval := func(_, _, _ int) error {
			time.Sleep(100 * time.Microsecond)
			return nil
		}
		time.AfterFunc(20*time.Millisecond, cancel)
		start := time.Now()
		_, timings, err := sweep(n, opts, eval)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: sweep returned %v, want context.Canceled", parallelism, err)
		}
		if elapsed > 10*time.Second {
			t.Fatalf("parallelism %d: cancelled sweep took %v to return", parallelism, elapsed)
		}
		done := 0
		for _, wt := range timings {
			done += wt.Points
		}
		if done >= n {
			t.Fatalf("parallelism %d: sweep completed all %d points despite cancellation", parallelism, n)
		}
	}
}

// TestExplorePropagatesContextError checks the engine wrappers surface a
// pre-cancelled context as an error instead of a silent full sweep.
func TestExplorePropagatesContextError(t *testing.T) {
	cfg, g, a, pts := prepareWorkload(t, "456.hmmer", 21, 800, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallelism := range []int{1, 2} {
		opts := ExploreOptions{Parallelism: parallelism, ChunkSize: 1, Context: ctx}
		if _, err := ExploreGraphOpts(g, pts, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("graph (parallelism %d): err = %v, want context.Canceled", parallelism, err)
		}
		if _, err := ExploreRpStacksOpts(a, pts, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("rpstacks (parallelism %d): err = %v, want context.Canceled", parallelism, err)
		}
		if _, err := Explore(SimEngine(cfg, nil), pts, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("sim (parallelism %d): err = %v, want context.Canceled", parallelism, err)
		}
	}
	// An uncancelled context leaves the sweep untouched: same results as the
	// serial reference.
	live := ExploreOptions{Parallelism: 2, Context: context.Background()}
	withCtx, err := ExploreGraphOpts(g, pts, live)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := ExploreGraphOpts(g, pts, ExploreOptions{})
	sameResults(t, "ctx-vs-serial", ref.Results, withCtx.Results)
}
