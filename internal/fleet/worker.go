package fleet

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/prom"
	"repro/internal/stacks"
	"repro/internal/store"
)

// WorkerConfig parameterizes NewWorker.
type WorkerConfig struct {
	// CoordinatorURL is the base URL the /fleet/v1/ protocol lives under,
	// e.g. "http://127.0.0.1:9090". Required.
	CoordinatorURL string
	// Shared is the blob root chunk results are published into — the same
	// directory the coordinator opened. Required.
	Shared *store.Shared
	// Concurrency is dse.ExploreOptions.Parallelism for each chunk
	// evaluation (default GOMAXPROCS). Results are identical at any value.
	Concurrency int
	// ID names this worker to the coordinator (default "<hostname>-<pid>").
	ID string
	// Client issues the protocol requests (default: a dedicated client with
	// a 30s timeout).
	Client *http.Client
	// PollInterval is the idle re-poll delay when the coordinator has no
	// grantable chunk or is unreachable (default 200ms).
	PollInterval time.Duration
	// Logger receives lease-lifecycle logs. Nil discards.
	Logger *slog.Logger
	// Tracer, when non-nil, records lease/evaluate/publish spans on the
	// caller's tracer. When nil the worker builds its own: span IDs
	// namespaced by the worker ID (obs.WithProcessID) and every completed
	// span captured for the trace fragments it publishes beside chunk
	// results. A caller-owned tracer disables fragment publication — the
	// caller owns the records' destination.
	Tracer *obs.Tracer

	// onEvaluated, when non-nil, runs after a chunk is evaluated and before
	// its blob is published; a non-nil error aborts Run right there. Test
	// hook: deterministic worker-crash injection at the worst moment — work
	// done, nothing published, lease still held.
	onEvaluated func(sweepID string, chunk int) error
}

// Worker pulls chunk leases from a Coordinator, evaluates them through the
// deterministic sweep engines, and publishes result blobs into the shared
// store root. Construct with NewWorker; Run once.
type Worker struct {
	url    string
	shared *store.Shared
	conc   int
	id     string
	client *http.Client
	poll   time.Duration
	logger *slog.Logger
	tracer *obs.Tracer
	// collector captures every completed span of the worker-owned tracer so
	// handleLease can publish them as trace fragments; nil when the tracer is
	// caller-owned.
	collector *spanCollector
	reg       *prom.Registry
	wm        *workerMetrics

	onEvaluated func(string, int) error

	start    time.Time
	draining atomic.Bool
	// sweeps caches rebuilt engines per sweep id; touched only by the Run
	// goroutine.
	sweeps map[string]*workerSweep
	// runners caches workload rebuilds per (seed, µops) recipe, so the
	// many single-round sweeps of one guided search (each a distinct
	// fingerprint) re-simulate the workload once, not once per round.
	// Touched only by the Run goroutine.
	runners map[string]*experiments.Runner
}

// workerSweep is one sweep's rebuilt, fingerprint-verified engine state.
type workerSweep struct {
	info   sweepInfo
	points []stacks.Latencies
	fp     []byte
	engine *dse.Engine
	// batch is the lane width chunks evaluate at. It starts as the spec's;
	// when that is 0 (autotune) the first chunk's resolved width is cached
	// here so later chunks skip the autotune probe.
	batch int
}

// NewWorker builds a Worker. Missing CoordinatorURL or Shared is a wiring
// bug and panics.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.CoordinatorURL == "" {
		panic("fleet: WorkerConfig.CoordinatorURL is required")
	}
	if cfg.Shared == nil {
		panic("fleet: WorkerConfig.Shared is required")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = runtime.GOMAXPROCS(0)
	}
	if cfg.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	w := &Worker{
		url:         cfg.CoordinatorURL,
		shared:      cfg.Shared,
		conc:        cfg.Concurrency,
		id:          cfg.ID,
		client:      cfg.Client,
		poll:        cfg.PollInterval,
		logger:      cfg.Logger,
		tracer:      cfg.Tracer,
		reg:         prom.NewRegistry(),
		onEvaluated: cfg.onEvaluated,
		start:       time.Now(),
		sweeps:      make(map[string]*workerSweep),
		runners:     make(map[string]*experiments.Runner),
	}
	if w.tracer == nil {
		w.collector = &spanCollector{}
		w.tracer = obs.NewTracer(obs.DefaultCapacity,
			obs.WithProcessID(w.id),
			obs.WithOnEnd(w.collector.observe))
	}
	w.wm = newWorkerMetrics(w.reg)
	registerProcessStart(w.reg, w.start)
	return w
}

// Tracer exposes the worker's tracer — rpworker's -trace-out snapshots it.
func (w *Worker) Tracer() *obs.Tracer { return w.tracer }

// spanCollector accumulates completed span records between fragment
// publications. It sits on the tracer's OnEnd hook, so unlike the tracer
// ring it never drops a record — handleLease drains it once per chunk, which
// bounds it at one chunk's span count.
type spanCollector struct {
	mu   sync.Mutex
	recs []obs.Record
}

func (c *spanCollector) observe(r obs.Record) {
	c.mu.Lock()
	c.recs = append(c.recs, r)
	c.mu.Unlock()
}

func (c *spanCollector) drain() []obs.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.recs
	c.recs = nil
	return out
}

// workerMetrics are the worker process's own rpstacks_worker_* families,
// served on its health listener at /metrics — the per-process view the
// coordinator's federated rpstacks_fleet_worker_* summaries approximate.
type workerMetrics struct {
	chunks  *prom.Counter
	points  *prom.Counter
	eval    *prom.Counter
	publish *prom.Counter
}

func newWorkerMetrics(reg *prom.Registry) *workerMetrics {
	return &workerMetrics{
		chunks: reg.Counter("rpstacks_worker_chunks_total",
			"Chunks this worker evaluated and published."),
		points: reg.Counter("rpstacks_worker_points_total",
			"Design points this worker evaluated."),
		eval: reg.Counter("rpstacks_worker_evaluate_seconds_total",
			"Wall-clock this worker spent evaluating chunks."),
		publish: reg.Counter("rpstacks_worker_publish_seconds_total",
			"Wall-clock this worker spent publishing result blobs."),
	}
}

// registerProcessStart exports the Unix start time of this process — the
// standard restart-detection gauge, on both the worker's and rpserved's
// registries.
func registerProcessStart(reg *prom.Registry, start time.Time) {
	reg.Gauge("rpstacks_process_start_time_seconds",
		"Unix time this process started.").Set(float64(start.UnixNano()) / 1e9)
}

// ID reports the worker's identity as the coordinator sees it.
func (w *Worker) ID() string { return w.id }

// Drain stops the worker taking new leases; Run finishes the chunk in hand
// (if any) and returns nil. /readyz answers 503 from the moment Drain is
// called, matching rpserved's drain semantics.
func (w *Worker) Drain() { w.draining.Store(true) }

// Run is the lease-pull loop: lease, rebuild+verify the sweep's engine
// (cached per sweep), evaluate, publish, complete, repeat. It returns nil
// after Drain, ctx.Err() on cancellation, and a non-nil error only for hard
// faults — a sweep whose rebuilt fingerprint disagrees with the
// coordinator's, or an engine failure — where continuing could publish
// wrong results. Coordinator unavailability is soft: the worker backs off
// and retries forever.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if w.draining.Load() {
			return nil
		}
		var grant leaseResponse
		// Bracket the lease round-trip on the worker tracer's clock: paired
		// with the coordinator clock stamped into the grant, (t0, t1, coord)
		// is one NTP-style obs.ClockSync — the coordinator produced its stamp
		// somewhere inside [t0, t1], so the midpoint bounds the skew by half
		// the round-trip. The freshest sync rides in this chunk's fragment
		// and normalizes this worker's track in the merged timeline.
		t0 := w.tracer.Now()
		status, err := w.postJSON(ctx, "/fleet/v1/lease", leaseRequest{Worker: w.id}, &grant)
		t1 := w.tracer.Now()
		if err != nil || status != http.StatusOK {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logger.Warn("fleet: lease request failed", slog.Any("err", err), slog.Int("status", status))
			if !sleepCtx(ctx, w.poll) {
				return ctx.Err()
			}
			continue
		}
		if grant.Status != "lease" {
			d := time.Duration(grant.WaitMillis) * time.Millisecond
			if d <= 0 {
				d = w.poll
			}
			if !sleepCtx(ctx, d) {
				return ctx.Err()
			}
			continue
		}
		var csync obs.ClockSync
		hasSync := false
		if grant.CoordClockNanos != 0 {
			csync = obs.ClockSync{T0: t0, T1: t1, Coord: time.Duration(grant.CoordClockNanos)}
			hasSync = true
		}
		if err := w.handleLease(ctx, grant, csync, hasSync); err != nil {
			return err
		}
	}
}

// handleLease evaluates and publishes one granted chunk. Soft faults (sweep
// vanished, publish raced, coordinator restarting) log and return nil; hard
// faults return the error and kill Run. The grant's trace context parents
// every span recorded here under the coordinator's chunk span; csync is the
// lease round-trip's clock correspondence, shipped in the chunk's fragment.
func (w *Worker) handleLease(ctx context.Context, grant leaseResponse, csync obs.ClockSync, hasSync bool) error {
	sp := w.tracer.StartChild(grant.TraceParent, obs.CatFleet, obs.NameLease)
	sp.SetDetail(shortID(grant.SweepID))
	sp.SetArg("chunk", int64(grant.Chunk))
	sp.End()

	// Renew the lease at TTL/3 for as long as the chunk is in flight — and
	// start renewing *before* fetching the sweep, because the first lease of
	// a sweep pays the one-time workload rebuild, which can easily outlast a
	// short TTL. A 410 means the lease already expired — the chunk may be
	// re-leased, but this worker finishes anyway: its blob is byte-identical
	// to any rival's, and completion is first-writer-wins.
	hbStop := make(chan struct{})
	var hbDone sync.WaitGroup
	if ttl := time.Duration(grant.TTLMillis) * time.Millisecond; ttl > 0 {
		hbDone.Add(1)
		go func() {
			defer hbDone.Done()
			t := time.NewTicker(ttl / 3)
			defer t.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-ctx.Done():
					return
				case <-t.C:
					var resp heartbeatResponse
					status, err := w.postJSON(ctx, "/fleet/v1/heartbeat", heartbeatRequest{Worker: w.id, Lease: grant.Lease}, &resp)
					if err == nil && status == http.StatusGone {
						w.logger.Warn("fleet: lease expired under us; finishing anyway",
							slog.Uint64("lease", grant.Lease), slog.Int("chunk", grant.Chunk))
						return
					}
				}
			}
		}()
	}
	defer func() {
		close(hbStop)
		hbDone.Wait()
	}()

	ws, err := w.getSweep(ctx, grant.SweepID)
	if err != nil {
		if _, gone := err.(errSweepGone); gone {
			// The sweep finished or was cancelled between grant and fetch.
			w.logger.Info("fleet: leased sweep vanished", slog.String("sweep", shortID(grant.SweepID)))
			sleepCtx(ctx, w.poll)
			return nil
		}
		return err
	}
	if grant.Lo < 0 || grant.Hi > len(ws.points) || grant.Lo >= grant.Hi {
		return fmt.Errorf("fleet: lease range [%d,%d) outside sweep of %d points", grant.Lo, grant.Hi, len(ws.points))
	}

	pts := ws.points[grant.Lo:grant.Hi]
	esp := w.tracer.StartChild(grant.TraceParent, obs.CatFleet, obs.NameEvaluate)
	esp.SetDetail(fmt.Sprintf("%s chunk %d", shortID(grant.SweepID), grant.Chunk))
	esp.SetArg(obs.ArgPoints, int64(len(pts)))
	evalStart := time.Now()
	rep, err := dse.Explore(ws.engine, pts, dse.ExploreOptions{
		Parallelism: w.conc,
		BatchSize:   ws.batch,
		Context:     ctx,
		Tracer:      w.tracer,
		TraceParent: esp.ID(),
	})
	evalDur := time.Since(evalStart)
	esp.End()
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("fleet: evaluating chunk %d of sweep %s: %w", grant.Chunk, shortID(grant.SweepID), err)
	}
	if ws.batch == 0 && rep.Batch > 0 {
		ws.batch = rep.Batch
	}
	if w.onEvaluated != nil {
		if err := w.onEvaluated(grant.SweepID, grant.Chunk); err != nil {
			return err
		}
	}

	idxs := make([]int, len(pts))
	cycles := make([]float64, len(pts))
	for k := range pts {
		idxs[k] = grant.Lo + k
		cycles[k] = rep.Results[k].Cycles
	}
	blob, err := dse.EncodeChunk(ws.fp, idxs, cycles)
	if err != nil {
		return fmt.Errorf("fleet: encoding chunk %d: %w", grant.Chunk, err)
	}
	psp := w.tracer.StartChild(grant.TraceParent, obs.CatFleet, obs.NamePublish)
	psp.SetDetail(fmt.Sprintf("%s chunk %d", shortID(grant.SweepID), grant.Chunk))
	pubStart := time.Now()
	dup, perr := w.shared.Put(chunkKey(grant.SweepID, grant.Chunk), blob)
	pubDur := time.Since(pubStart)
	psp.End()
	if perr != nil {
		// The blob never landed; say nothing, let the lease expire and the
		// chunk re-lease. A persistently broken shared root keeps failing
		// loudly in the log without corrupting anything.
		w.logger.Warn("fleet: publishing chunk failed", slog.Int("chunk", grant.Chunk), slog.Any("err", perr))
		sleepCtx(ctx, w.poll)
		return nil
	}
	w.wm.chunks.Inc()
	w.wm.points.Add(float64(len(pts)))
	w.wm.eval.Add(evalDur.Seconds())
	w.wm.publish.Add(pubDur.Seconds())

	// Publish this chunk's trace fragment beside its result blob — before
	// the completion call, so even a worker killed right after complete (or
	// a coordinator that crashes and resumes) finds the fragment in the
	// store. Only when the coordinator traces this sweep (TraceParent set)
	// and the worker owns its tracer; failure costs the timeline a track,
	// never the sweep a result.
	if grant.TraceParent != 0 && w.collector != nil {
		frag := &obs.Fragment{Process: w.id, Records: w.collector.drain(), Sync: csync, HasSync: hasSync}
		if fraw, ferr := obs.EncodeFragment(ws.fp, frag); ferr != nil {
			w.logger.Warn("fleet: encoding trace fragment failed", slog.Int("chunk", grant.Chunk), slog.Any("err", ferr))
		} else if _, ferr := w.shared.Put(fragKey(grant.SweepID, grant.Chunk), fraw); ferr != nil {
			w.logger.Warn("fleet: publishing trace fragment failed", slog.Int("chunk", grant.Chunk), slog.Any("err", ferr))
		}
	} else if w.collector != nil {
		w.collector.drain() // untraced sweep: discard, keep the collector bounded
	}

	// The completion call outlives a cancellation that lands after the blob
	// is published: the coordinator must hear of every blob a worker writes,
	// or a straggler's copy re-published after assembly would be left behind.
	cctx, cancelComplete := context.WithTimeout(context.WithoutCancel(ctx), completeTimeout)
	defer cancelComplete()
	var cresp completeResponse
	status, err := w.postJSON(cctx, "/fleet/v1/complete", completeRequest{
		Worker:         w.id,
		Lease:          grant.Lease,
		SweepID:        grant.SweepID,
		Chunk:          grant.Chunk,
		Points:         len(pts),
		EvalSeconds:    evalDur.Seconds(),
		PublishSeconds: pubDur.Seconds(),
	}, &cresp)
	switch {
	case err != nil:
		// The blob is published; a restarted coordinator restores it even if
		// this completion call was lost.
		w.logger.Warn("fleet: completion call failed", slog.Int("chunk", grant.Chunk), slog.Any("err", err))
	case status != http.StatusOK:
		w.logger.Warn("fleet: completion rejected",
			slog.Int("chunk", grant.Chunk), slog.Int("status", status))
	default:
		w.logger.Info("fleet: chunk completed",
			slog.String("sweep", shortID(grant.SweepID)),
			slog.Int("chunk", grant.Chunk),
			slog.Int("points", len(pts)),
			slog.Bool("stolen", grant.Stolen),
			slog.Bool("dup_blob", dup),
			slog.String("result", cresp.Status))
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

// completeTimeout bounds the completion call, which runs detached from the
// worker's context so a cancellation cannot strand a just-published blob.
const completeTimeout = 10 * time.Second

// errSweepGone marks a sweep the coordinator no longer knows — a soft fault.
type errSweepGone struct{ id string }

func (e errSweepGone) Error() string { return fmt.Sprintf("fleet: sweep %s gone", shortID(e.id)) }

// getSweep returns the cached engine state of the sweep, rebuilding and
// fingerprint-verifying it on first sight.
func (w *Worker) getSweep(ctx context.Context, id string) (*workerSweep, error) {
	if ws, ok := w.sweeps[id]; ok {
		return ws, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/fleet/v1/sweep?id="+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, errSweepGone{id}
	}
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, maxProtocolBody))
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errSweepGone{id}
	}
	if rerr != nil {
		return nil, errSweepGone{id}
	}
	var info sweepInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, fmt.Errorf("fleet: decoding sweep info: %w", err)
	}
	ws, err := w.buildSweep(info)
	if err != nil {
		return nil, err
	}
	w.sweeps[id] = ws
	w.logger.Info("fleet: sweep engine ready",
		slog.String("sweep", shortID(id)),
		slog.String("engine", info.Spec.Engine),
		slog.String("workload", info.Spec.Workload),
		slog.Int("points", len(ws.points)))
	return ws, nil
}

// runner returns the cached workload runner for the spec's (seed, µops)
// recipe, creating it on first use. The runner memoizes rebuilt apps per
// workload, so consecutive sweeps over the same recipe — notably the
// round-per-fingerprint stream of a guided search — share one rebuild.
func (w *Worker) runner(spec SweepSpec) *experiments.Runner {
	key := fmt.Sprintf("%d|%d", spec.Seed, spec.MicroOps)
	if r, ok := w.runners[key]; ok {
		return r
	}
	r := experiments.NewRunner(spec.MicroOps)
	r.Seed = spec.Seed
	w.runners[key] = r
	return r
}

// buildSweep deterministically rebuilds the sweep's engine inputs from its
// spec and proves identity: the recomputed fingerprint must equal the
// coordinator's sweep id, or the worker refuses the sweep outright — the
// fingerprint covers the analysis/graph/config bytes and every point value,
// so equality means the worker will produce bit-identical results.
func (w *Worker) buildSweep(info sweepInfo) (*workerSweep, error) {
	spec := info.Spec
	if _, err := dse.EngineMethod(spec.Engine); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	r := w.runner(spec)
	app, err := r.App(spec.Workload)
	if err != nil {
		return nil, fmt.Errorf("fleet: rebuilding sweep %s: %w", shortID(info.ID), err)
	}
	// An explicit sweep (a guided search's probe round) ships its point
	// list because the points are not the axes' enumeration; the
	// fingerprint check below binds every shipped value all the same.
	points := info.PointList
	if len(points) == 0 {
		space, err := parseAxes(spec.Axes)
		if err != nil {
			return nil, fmt.Errorf("fleet: sweep %s axes: %w", shortID(info.ID), err)
		}
		points = space.Enumerate(r.Cfg.Lat)
	}
	if len(points) != info.Points {
		return nil, fmt.Errorf("fleet: sweep %s: rebuilt %d points, coordinator has %d",
			shortID(info.ID), len(points), info.Points)
	}
	eng, err := dse.NewEngine(spec.Engine, dse.EngineInputs{Analysis: app.Analysis, Graph: app.Graph, Cfg: r.Cfg, UOps: app.UOps})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	fp, err := dse.SweepFingerprint(eng, points)
	if err != nil {
		return nil, fmt.Errorf("fleet: fingerprinting sweep %s: %w", shortID(info.ID), err)
	}
	if hex.EncodeToString(fp) != info.ID {
		return nil, fmt.Errorf("fleet: rebuilt fingerprint %s disagrees with coordinator sweep %s — refusing to evaluate",
			shortID(hex.EncodeToString(fp)), shortID(info.ID))
	}
	return &workerSweep{info: info, points: points, fp: fp, engine: eng, batch: spec.BatchSize}, nil
}

// postJSON posts req to the coordinator path and decodes the response into
// out when the status is 2xx/410 (protocol answers); returns the HTTP
// status. Transport failures return err.
func (w *Worker) postJSON(ctx context.Context, path string, reqBody, out any) (int, error) {
	raw, err := json.Marshal(reqBody)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+path, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, maxProtocolBody))
	_ = resp.Body.Close()
	if rerr != nil {
		return resp.StatusCode, rerr
	}
	if out != nil && len(body) > 0 {
		_ = json.Unmarshal(body, out)
	}
	return resp.StatusCode, nil
}

// Handler serves the worker's liveness and metrics endpoints, mirroring
// rpserved's semantics: GET /healthz is always 200 and reports ok or
// draining; GET /readyz flips to 503 the moment the worker drains, so a
// local balancer or smoke harness can watch the transition; GET /metrics is
// the worker's own rpstacks_worker_* registry in Prometheus exposition
// format.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		status := "ok"
		if w.draining.Load() {
			status = "draining"
		}
		fleetJSON(rw, http.StatusOK, map[string]any{
			"status":         status,
			"worker":         w.id,
			"uptime_seconds": time.Since(w.start).Seconds(),
		})
	})
	mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, _ *http.Request) {
		if w.draining.Load() {
			fleetJSON(rw, http.StatusServiceUnavailable, map[string]string{"status": "draining", "worker": w.id})
			return
		}
		fleetJSON(rw, http.StatusOK, map[string]string{"status": "ready", "worker": w.id})
	})
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.reg.WriteText(rw)
	})
	return mux
}

// sleepCtx sleeps d or until ctx cancels; reports whether the sleep ran its
// course.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
