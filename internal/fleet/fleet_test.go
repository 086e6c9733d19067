package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/stacks"
	"repro/internal/store"
)

// fleet_test.go — the tentpole differential proofs: a multi-worker fleet
// sweep is bit-identical to the single-process sweep, worker death mid-chunk
// recovers by stealing, and coordinator death mid-sweep resumes from the
// published chunk blobs. All deterministic: crash injection is a hook, not a
// timeout.

const (
	testMicroOps = 1500
	testWorkload = "416.gamess"
)

// testAxes spans 4x3 = 12 design points; ChunkSize 3 gives 4 chunks.
var testAxes = []string{"L1D=1,2,3,4", "FpMul=2,4,6"}

var testEngines = []string{"graph", "rpstacks", "sim"}

type fleetEnv struct {
	err    error
	runner *experiments.Runner
	app    *experiments.App
	points []stacks.Latencies
	golden map[string]*dse.Report
}

var (
	fleetEnvOnce sync.Once
	fleetEnvVal  *fleetEnv
)

// testFleetEnv builds (once) the single-process golden reports of the test
// sweep under every engine, with fingerprints, and cross-checks the exported
// SweepFingerprint* helpers against what the sweeps themselves computed.
func testFleetEnv(t *testing.T) *fleetEnv {
	t.Helper()
	fleetEnvOnce.Do(func() {
		e := &fleetEnv{golden: make(map[string]*dse.Report)}
		fleetEnvVal = e
		r := experiments.NewRunner(testMicroOps)
		app, err := r.App(testWorkload)
		if err != nil {
			e.err = err
			return
		}
		e.runner, e.app = r, app
		space, err := parseAxes(testAxes)
		if err != nil {
			e.err = err
			return
		}
		e.points = space.Enumerate(r.Cfg.Lat)
		opts := dse.ExploreOptions{NeedFingerprint: true}
		for _, eng := range testEngines {
			var rep *dse.Report
			var fp []byte
			switch eng {
			case "graph":
				rep, err = dse.ExploreGraphOpts(app.Graph, e.points, opts)
				if err == nil {
					fp, err = dse.SweepFingerprintGraph(app.Graph, e.points)
				}
			case "rpstacks":
				rep, err = dse.ExploreRpStacksOpts(app.Analysis, e.points, opts)
				if err == nil {
					fp, err = dse.SweepFingerprintRpStacks(app.Analysis, e.points)
				}
			case "sim":
				rep, err = dse.Explore(dse.SimEngine(r.Cfg, app.UOps), e.points, opts)
				if err == nil {
					fp, err = dse.SweepFingerprint(dse.SimEngine(r.Cfg, app.UOps), e.points)
				}
			}
			if err != nil {
				e.err = err
				return
			}
			if !bytes.Equal(rep.Fingerprint, fp) {
				e.err = fmt.Errorf("%s: exported fingerprint disagrees with the sweep's own", eng)
				return
			}
			e.golden[eng] = rep
		}
	})
	if fleetEnvVal.err != nil {
		t.Fatalf("building fleet test env: %v", fleetEnvVal.err)
	}
	return fleetEnvVal
}

func testSweep(env *fleetEnv, engine string) Sweep {
	return Sweep{
		Spec: SweepSpec{
			Workload: testWorkload,
			Seed:     42,
			MicroOps: testMicroOps,
			Engine:   engine,
			Axes:     append([]string(nil), testAxes...),
		},
		Points:      env.points,
		Fingerprint: env.golden[engine].Fingerprint,
		ChunkSize:   3,
	}
}

// sameSweepResults asserts the fleet report reproduced the golden sweep
// bit-for-bit: method, point order, latencies and cycle counts.
func sameSweepResults(t *testing.T, got, golden *dse.Report) {
	t.Helper()
	if got.Method != golden.Method {
		t.Fatalf("Method = %q, want %q", got.Method, golden.Method)
	}
	if !bytes.Equal(got.Fingerprint, golden.Fingerprint) {
		t.Fatalf("Fingerprint = %x, want %x", got.Fingerprint, golden.Fingerprint)
	}
	if len(got.Results) != len(golden.Results) {
		t.Fatalf("got %d results, want %d", len(got.Results), len(golden.Results))
	}
	for i := range golden.Results {
		if got.Results[i].Lat != golden.Results[i].Lat {
			t.Fatalf("point %d: Lat diverged", i)
		}
		if got.Results[i].Cycles != golden.Results[i].Cycles {
			t.Fatalf("point %d: Cycles = %v, want %v (not bit-identical)", i,
				got.Results[i].Cycles, golden.Results[i].Cycles)
		}
	}
}

func startWorker(t *testing.T, ctx context.Context, wg *sync.WaitGroup, w *Worker) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("worker %s: %v", w.ID(), err)
		}
	}()
}

// TestFleetDifferential is the core proof: two workers plus a coordinator
// produce, for every engine, the byte-identical Report of the single-process
// sweep, and the chunk blobs are gone once the report is assembled.
func TestFleetDifferential(t *testing.T) {
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

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			sw := testSweep(env, engine)
			rep, err := coord.Run(ctx, sw)
			stopWorkers()
			wg.Wait()
			if err != nil {
				t.Fatalf("fleet sweep: %v", err)
			}
			sameSweepResults(t, rep, env.golden[engine])
			if rep.Resumed != 0 {
				t.Errorf("Resumed = %d on a fresh sweep, want 0", rep.Resumed)
			}
			if len(rep.Workers) == 0 {
				t.Errorf("Report.Workers is empty: no per-worker attribution")
			}
			id := sweepID(sw)
			for i := 0; i < 4; i++ {
				if _, ok := shared.Get(chunkKey(id, i)); ok {
					t.Errorf("chunk %d blob survived assembly", i)
				}
			}
			if got := coord.metrics.completed.With("first").Value(); got != 4 {
				t.Errorf("completed{first} = %v, want 4", got)
			}
		})
	}
}

func sweepID(sw Sweep) string { return fmt.Sprintf("%x", sw.Fingerprint) }

// TestFleetWorkerCrashRecovery kills a worker deterministically at the worst
// moment — chunk evaluated, nothing published, lease still held — with a
// lease TTL so long it never expires. Recovery must come from work-stealing:
// the second worker drains the pending chunks, then steals the dead worker's
// chunk, and the report still matches the golden sweep.
func TestFleetWorkerCrashRecovery(t *testing.T) {
	env := testFleetEnv(t)
	shared, err := store.OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{
		Shared:   shared,
		LeaseTTL: time.Hour, // expiry cannot save us; stealing must
		WaitHint: 2 * time.Millisecond,
	})
	srv := httptest.NewServer(coord)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	type runRes struct {
		rep *dse.Report
		err error
	}
	resCh := make(chan runRes, 1)
	go func() {
		rep, err := coord.Run(ctx, testSweep(env, "graph"))
		resCh <- runRes{rep, err}
	}()

	crashErr := errors.New("injected worker crash")
	crasher := NewWorker(WorkerConfig{
		CoordinatorURL: srv.URL,
		Shared:         shared,
		Concurrency:    1,
		ID:             "crasher",
		PollInterval:   2 * time.Millisecond,
		onEvaluated:    func(string, int) error { return crashErr },
	})
	if err := crasher.Run(context.Background()); !errors.Is(err, crashErr) {
		t.Fatalf("crasher.Run = %v, want injected crash", err)
	}

	wctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	var wg sync.WaitGroup
	startWorker(t, wctx, &wg, NewWorker(WorkerConfig{
		CoordinatorURL: srv.URL,
		Shared:         shared,
		Concurrency:    2,
		ID:             "rescuer",
		PollInterval:   2 * time.Millisecond,
	}))

	res := <-resCh
	stopWorkers()
	wg.Wait()
	if res.err != nil {
		t.Fatalf("fleet sweep: %v", res.err)
	}
	sameSweepResults(t, res.rep, env.golden["graph"])
	if got := coord.metrics.stolen.Value(); got < 1 {
		t.Errorf("stolen = %v, want >= 1: recovery must have gone through the steal path", got)
	}
	if got := coord.metrics.expired.Value(); got != 0 {
		t.Errorf("expired = %v, want 0: the TTL was an hour", got)
	}
}

// TestFleetCoordinatorCrashResume kills the coordinator after exactly two
// chunks were published, restarts a fresh coordinator over the same shared
// root, and requires it to restore those chunks (Report.Resumed) and finish
// with golden-identical results.
func TestFleetCoordinatorCrashResume(t *testing.T) {
	env := testFleetEnv(t)
	shared, err := store.OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw := testSweep(env, "graph")
	id := sweepID(sw)

	// Phase 1: a single worker publishes chunks 0 and 1, then dies on its
	// third evaluation; the coordinator is cancelled — "crashed" — mid-sweep.
	coord1 := NewCoordinator(CoordinatorConfig{
		Shared:   shared,
		LeaseTTL: time.Hour,
		WaitHint: 2 * time.Millisecond,
	})
	srv1 := httptest.NewServer(coord1)
	ctx1, crashCoord := context.WithCancel(context.Background())
	resCh := make(chan error, 1)
	go func() {
		_, err := coord1.Run(ctx1, sw)
		resCh <- err
	}()
	crashErr := errors.New("injected worker crash")
	var evals atomic.Int32
	crasher := NewWorker(WorkerConfig{
		CoordinatorURL: srv1.URL,
		Shared:         shared,
		Concurrency:    1,
		ID:             "phase1",
		PollInterval:   2 * time.Millisecond,
		onEvaluated: func(string, int) error {
			if evals.Add(1) >= 3 {
				return crashErr
			}
			return nil
		},
	})
	if err := crasher.Run(context.Background()); !errors.Is(err, crashErr) {
		t.Fatalf("phase-1 worker: %v, want injected crash", err)
	}
	crashCoord()
	if err := <-resCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("crashed coordinator Run = %v, want context.Canceled", err)
	}
	srv1.Close()

	published := 0
	for i := 0; i < 4; i++ {
		if _, ok := shared.Get(chunkKey(id, i)); ok {
			published++
		}
	}
	if published != 2 {
		t.Fatalf("%d chunk blobs survive the crash, want exactly 2", published)
	}

	// Phase 2: a fresh coordinator over the same root resumes from the two
	// published chunks; a healthy worker finishes the rest.
	coord2 := NewCoordinator(CoordinatorConfig{
		Shared:   shared,
		LeaseTTL: 10 * time.Second,
		WaitHint: 2 * time.Millisecond,
	})
	srv2 := httptest.NewServer(coord2)
	defer srv2.Close()
	wctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	var wg sync.WaitGroup
	startWorker(t, wctx, &wg, NewWorker(WorkerConfig{
		CoordinatorURL: srv2.URL,
		Shared:         shared,
		Concurrency:    2,
		ID:             "phase2",
		PollInterval:   2 * time.Millisecond,
	}))
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel2()
	rep, err := coord2.Run(ctx2, sw)
	stopWorkers()
	wg.Wait()
	if err != nil {
		t.Fatalf("resumed fleet sweep: %v", err)
	}
	sameSweepResults(t, rep, env.golden["graph"])
	if rep.Resumed != 6 {
		t.Errorf("Resumed = %d points, want 6 (two chunks of three)", rep.Resumed)
	}
	if got := coord2.metrics.completed.With("first").Value(); got != 2 {
		t.Errorf("completed{first} = %v on resume, want 2", got)
	}
}

// TestFleetAttachedRun proves two concurrent Runs of the identical sweep
// share one execution: both get golden-identical reports and the chunk work
// is done once.
func TestFleetAttachedRun(t *testing.T) {
	env := testFleetEnv(t)
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
	startWorker(t, wctx, &wg, NewWorker(WorkerConfig{
		CoordinatorURL: srv.URL,
		Shared:         shared,
		Concurrency:    2,
		ID:             "solo",
		PollInterval:   2 * time.Millisecond,
	}))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var reps [2]*dse.Report
	var errs [2]error
	var runs sync.WaitGroup
	for i := 0; i < 2; i++ {
		runs.Add(1)
		go func(i int) {
			defer runs.Done()
			reps[i], errs[i] = coord.Run(ctx, testSweep(env, "rpstacks"))
		}(i)
	}
	runs.Wait()
	stopWorkers()
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		sameSweepResults(t, reps[i], env.golden["rpstacks"])
	}
	if got := coord.metrics.completed.With("first").Value(); got != 4 {
		t.Errorf("completed{first} = %v, want 4: attached runs must share one execution", got)
	}
}
