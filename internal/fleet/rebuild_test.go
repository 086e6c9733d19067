package fleet

import (
	"context"
	"encoding/hex"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/dse"
	"repro/internal/store"
	"repro/internal/workload"
)

// rebuild_test.go — the worker's rebuild builds only the artifact its engine
// reads, still proves identity with the coordinator, and keeps bounded
// memos however many sweeps a long-lived worker serves.

// TestWorkerRebuildsOnlyEngineArtifact: graph and sim rebuilds hold no
// analysis, rpstacks and sim rebuilds hold no graph, and for all three
// engines the rebuilt fingerprint equals the coordinator's sweep id.
func TestWorkerRebuildsOnlyEngineArtifact(t *testing.T) {
	env := testFleetEnv(t)
	w := testWorkerOnly(t)
	for _, engine := range testEngines {
		t.Run(engine, func(t *testing.T) {
			sw := testSweep(env, engine)
			info := sweepInfo{ID: hex.EncodeToString(sw.Fingerprint), Spec: sw.Spec, Points: len(sw.Points)}
			if _, err := w.buildSweep(info); err != nil {
				t.Fatalf("buildSweep: %v", err)
			}
			in, err := w.engineInputs(sw.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := in.Analysis != nil, engine == "rpstacks"; got != want {
				t.Errorf("rebuilt inputs hold an analysis: %v, want %v", got, want)
			}
			if got, want := in.Graph != nil, engine == "graph"; got != want {
				t.Errorf("rebuilt inputs hold a graph: %v, want %v", got, want)
			}
			if len(in.UOps) != len(env.app.UOps) {
				t.Errorf("rebuilt %d measured µops, want %d", len(in.UOps), len(env.app.UOps))
			}
		})
	}
}

// TestWorkerMemosBounded serves a long-lived worker many distinct sweeps,
// each over its own recipe (as a stream of guided-search rounds over
// changing seeds would be), and checks that neither memo keeps them all.
func TestWorkerMemosBounded(t *testing.T) {
	const (
		sweeps   = 3 * sweepMemo
		microOps = 200
	)
	shared, err := store.OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{Shared: shared, LeaseTTL: 10 * time.Second, WaitHint: 2 * time.Millisecond})
	srv := httptest.NewServer(coord)
	defer srv.Close()
	w := NewWorker(WorkerConfig{CoordinatorURL: srv.URL, Shared: shared, Concurrency: 1, ID: "long-lived", PollInterval: 2 * time.Millisecond})
	wctx, stop := context.WithCancel(context.Background())
	defer stop()
	var wg sync.WaitGroup
	startWorker(t, wctx, &wg, w)

	cfg := config.Baseline()
	space, err := parseAxes([]string{"L1D=1,2"})
	if err != nil {
		t.Fatal(err)
	}
	points := space.Enumerate(cfg.Lat)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for seed := int64(0); seed < sweeps; seed++ {
		r, err := workload.Measured(testWorkload, seed, microOps)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := dse.SweepFingerprint(dse.SimEngine(cfg, r.UOps), points)
		if err != nil {
			t.Fatal(err)
		}
		spec := SweepSpec{Workload: testWorkload, Seed: seed, MicroOps: microOps, Engine: "sim", Axes: []string{"L1D=1,2"}}
		if _, err := coord.Run(ctx, Sweep{Spec: spec, Points: points, Fingerprint: fp, ChunkSize: 2}); err != nil {
			t.Fatalf("sweep %d: %v", seed, err)
		}
	}
	stop()
	wg.Wait()
	if got, limit := w.sweeps.Len()+w.inputs.Len(), sweepMemo+inputMemo; got > limit {
		t.Fatalf("%d distinct sweeps left %d memo entries retained, want at most %d", sweeps, got, limit)
	}
	if w.sweeps.Len() == 0 || w.inputs.Len() == 0 {
		t.Fatalf("memos empty after %d sweeps (sweeps %d, inputs %d): nothing is memoized",
			sweeps, w.sweeps.Len(), w.inputs.Len())
	}
}

// TestWorkerInputMemoInterleavedRecipes interleaves the rounds of as many
// recipes as the worker memoizes sweeps, mixing engines and seeds as concurrent
// guided searches served by one worker would, and checks that each recipe
// is rebuilt once, not once per round.
func TestWorkerInputMemoInterleavedRecipes(t *testing.T) {
	const (
		rounds   = 3
		microOps = 200
	)
	w := testWorkerOnly(t)
	var specs []SweepSpec
	for seed := int64(0); len(specs) < sweepMemo; seed++ {
		for _, engine := range testEngines {
			if len(specs) < sweepMemo {
				specs = append(specs, SweepSpec{Workload: testWorkload, Seed: seed, MicroOps: microOps, Engine: engine})
			}
		}
	}
	for round := 0; round < rounds; round++ {
		for _, spec := range specs {
			if _, err := w.engineInputs(spec); err != nil {
				t.Fatalf("round %d, %s seed %d: %v", round, spec.Engine, spec.Seed, err)
			}
		}
	}
	if st := w.inputs.Stats(); st.Misses != uint64(len(specs)) || st.Evictions != 0 {
		t.Fatalf("%d recipes over %d interleaved rounds: %d rebuilds, %d evictions; want %d rebuilds, 0 evictions",
			len(specs), rounds, st.Misses, st.Evictions, len(specs))
	}
}
