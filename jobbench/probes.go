package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/store"
)

// probeLayers drives, on the workload's first named input, each sweep
// layer the workload's own jobs did not reach, so every run reports every
// layer. Probe spans are recorded under the parent "probe".
func probeLayers(ctx context.Context, p *prepared, j jobDef, rec *recorder) error {
	var probes []jobDef
	if len(rec.durs("core.predict", "")) == 0 {
		probes = append(probes, jobDef{In: j.In, Engine: "rpstacks", Axes: j.Axes, Top: 10})
	}
	if len(rec.durs("depgraph.eval", "")) == 0 {
		probes = append(probes, jobDef{In: j.In, Engine: "graph", Axes: j.Axes, Top: 10})
	}
	if len(rec.durs("dse.search", "")) == 0 {
		probes = append(probes, jobDef{In: j.In, Engine: j.Engine, Axes: j.Axes, Top: 10, Search: "halving"})
	}
	if len(rec.durs("audit.run", "")) == 0 {
		probes = append(probes, jobDef{In: j.In, Engine: j.Engine, Axes: j.Axes, Top: 10,
			AuditFraction: 3.5 / float64(gridSize(j.Axes)), AuditSeed: 1})
	}
	for _, pj := range probes {
		b, err := body(pj, nil)
		if err != nil {
			return err
		}
		if _, err := expect(ctx, p, "probe", b, rec); err != nil {
			return fmt.Errorf("layer probe: %w", err)
		}
	}
	return nil
}

// fleetProbeRuns is how many primed fleet sweeps the probe times.
const fleetProbeRuns = 3

// fleetProbe sweeps job j's points through a fleet coordinator with one
// in-process worker at cmd/rpworker defaults, and locally, and records
// both walls as fleet.run and fleet.local. The first fleet sweep, which
// pays the worker's recipe rebuild, is not recorded. Every fleet result
// must equal the local sweep's. It returns the sweep's chunk count.
func fleetProbe(ctx context.Context, p *prepared, j jobDef, dir string, rec *recorder) (int, error) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	share := filepath.Join(dir, "fleet-probe")
	coordShare, err := store.OpenShared(share)
	if err != nil {
		return 0, err
	}
	workerShare, err := store.OpenShared(share)
	if err != nil {
		return 0, err
	}
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{Shared: coordShare, Logger: logger})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: coord}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	wctx, stopWorker := context.WithCancel(ctx)
	worker := fleet.NewWorker(fleet.WorkerConfig{
		CoordinatorURL: "http://" + ln.Addr().String(),
		Shared:         workerShare,
		ID:             "probe-worker",
		PollInterval:   200 * time.Millisecond,
		Logger:         logger,
	})
	workerDone := make(chan error, 1)
	go func() { workerDone <- worker.Run(wctx) }()

	chunks, err := timeFleet(ctx, coord, p, j, rec)

	stopWorker()
	if werr := <-workerDone; werr != nil && !errors.Is(werr, context.Canceled) && err == nil {
		err = werr
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := hs.Shutdown(sctx); serr != nil && err == nil {
		err = serr
	}
	if serr := <-served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return chunks, err
}

// timeFleet runs the fleet probe's sweeps on coord and returns the chunk
// count.
func timeFleet(ctx context.Context, coord *fleet.Coordinator, p *prepared, j jobDef, rec *recorder) (int, error) {
	b, err := body(j, nil)
	if err != nil {
		return 0, err
	}
	spec, err := serve.ParseJobRequest(b, serve.DefaultLimits())
	if err != nil {
		return 0, err
	}
	points := spec.Space.Enumerate(baseline.Lat)
	var fp []byte
	switch j.Engine {
	case "rpstacks":
		fp, err = dse.SweepFingerprintRpStacks(p.analysis, points)
	case "graph":
		fp, err = dse.SweepFingerprintGraph(p.graph, points)
	default:
		err = fmt.Errorf("unsupported engine %q", j.Engine)
	}
	if err != nil {
		return 0, err
	}
	sw := fleet.Sweep{
		Spec: fleet.SweepSpec{
			Workload: j.In.App,
			Seed:     j.In.Seed,
			MicroOps: j.In.MicroOps,
			Engine:   j.Engine,
			Axes:     j.Axes,
		},
		Points:      points,
		Fingerprint: fp,
	}
	local, err := sweep(ctx, p, j.Engine, points, false, "fleet-local", newRecorder())
	if err != nil {
		return 0, err
	}
	for i := 0; i <= fleetProbeRuns; i++ {
		start := time.Now()
		rep, err := coord.Run(ctx, sw)
		if err != nil {
			return 0, fmt.Errorf("fleet sweep: %w", err)
		}
		if i > 0 {
			rec.add("fleet.run", "probe", start, float64(len(points)))
		}
		for k, r := range rep.Results {
			if r.Cycles != local.Results[k].Cycles {
				return 0, fmt.Errorf("fleet sweep point %d: %g cycles, local sweep %g", k, r.Cycles, local.Results[k].Cycles)
			}
		}
		start = time.Now()
		if _, err := sweep(ctx, p, j.Engine, points, false, "fleet-local", newRecorder()); err != nil {
			return 0, err
		}
		if i > 0 {
			rec.add("fleet.local", "probe", start, float64(len(points)))
		}
	}
	// The coordinator's default lease granularity: ~32 chunks per sweep.
	size := (len(points) + 31) / 32
	return (len(points) + size - 1) / size, nil
}
