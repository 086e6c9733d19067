package fleet

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/stacks"
	"repro/internal/store"
)

// explicit_test.go — the explicit-sweep protocol path that carries a guided
// search's probe rounds: the coordinator ships a point list that is NOT the
// axes' enumeration, workers evaluate it after the fingerprint check binds
// every shipped value, and results stay bit-identical to a local sweep.

// explicitPoints picks a scattered, enumeration-order-breaking subset of the
// test grid: last point first, then every third point.
func explicitPoints(env *fleetEnv) []stacks.Latencies {
	pts := []stacks.Latencies{env.points[len(env.points)-1]}
	for i := 0; i < len(env.points)-1; i += 3 {
		pts = append(pts, env.points[i])
	}
	return pts
}

// TestFleetExplicitSweep runs a probe-round-shaped sweep — explicit points,
// one round per fingerprint — for every engine and matches the local golden
// evaluation of the same points.
func TestFleetExplicitSweep(t *testing.T) {
	env := testFleetEnv(t)
	for _, engine := range testEngines {
		t.Run(engine, func(t *testing.T) {
			shared, err := store.OpenShared(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			coord := NewCoordinator(CoordinatorConfig{
				Shared:   shared,
				LeaseTTL: 10 * time.Second,
				WaitHint: 2 * time.Millisecond,
			})
			srv := httptest.NewServer(coord)
			defer srv.Close()

			wctx, stopWorkers := context.WithCancel(context.Background())
			defer stopWorkers()
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				startWorker(t, wctx, &wg, NewWorker(WorkerConfig{
					CoordinatorURL: srv.URL,
					Shared:         shared,
					Concurrency:    2,
					ID:             fmt.Sprintf("w%d", i),
					PollInterval:   2 * time.Millisecond,
				}))
			}

			pts := explicitPoints(env)
			sw := testSweep(env, engine)
			sw.Points = pts
			sw.ChunkSize = 2
			sw.Explicit = true
			switch engine {
			case "graph":
				sw.Fingerprint, err = dse.SweepFingerprintGraph(env.app.Graph, pts)
			case "rpstacks":
				sw.Fingerprint, err = dse.SweepFingerprintRpStacks(env.app.Analysis, pts)
			case "sim":
				sw.Fingerprint, err = dse.SweepFingerprint(dse.SimEngine(env.runner.Cfg, env.app.UOps), pts)
			}
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			rep, err := coord.Run(ctx, sw)
			stopWorkers()
			wg.Wait()
			if err != nil {
				t.Fatalf("explicit fleet sweep: %v", err)
			}
			if len(rep.Results) != len(pts) {
				t.Fatalf("got %d results, want %d", len(rep.Results), len(pts))
			}
			// The golden report is in enumeration order; look each explicit
			// point's cycles up by latencies.
			want := make(map[stacks.Latencies]float64, len(env.points))
			for _, r := range env.golden[engine].Results {
				want[r.Lat] = r.Cycles
			}
			for i, r := range rep.Results {
				if r.Lat != pts[i] {
					t.Fatalf("result %d: point order diverged", i)
				}
				if r.Cycles != want[r.Lat] {
					t.Fatalf("result %d: Cycles = %v, want %v (not bit-identical)", i, r.Cycles, want[r.Lat])
				}
			}
		})
	}
}

// TestFleetExplicitSweepCapped rejects oversized explicit point lists before
// registration — they would overflow the protocol body a worker reads.
func TestFleetExplicitSweepCapped(t *testing.T) {
	env := testFleetEnv(t)
	shared, err := store.OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{Shared: shared, LeaseTTL: time.Second})
	sw := testSweep(env, "graph")
	sw.Explicit = true
	sw.Points = make([]stacks.Latencies, maxExplicitPoints+1)
	for i := range sw.Points {
		sw.Points[i] = env.points[0]
	}
	_, err = coord.Run(context.Background(), sw)
	if err == nil || !strings.Contains(err.Error(), "explicit sweep") {
		t.Fatalf("oversized explicit sweep: %v, want the cap error", err)
	}
}
