// Package serve implements rpserved, the long-running design-space
// exploration service: HTTP job submission over the dse sweep engines with
// the one-time setup — simulate, analyze, build the dependence graph —
// amortized across requests through a content-addressed artifact cache.
//
// The paper's pitch is that one simulation answers thousands of design-point
// queries; a batch CLI still re-pays the simulation every invocation. The
// service pays it once per trace content: artifacts are keyed by
// trace.Digest (SHA-256 of the canonical trace encoding) plus the analysis
// options and machine fingerprint, so any number of jobs over the same
// workload — concurrent or sequential — share one setup and then only
// re-weight representative stacks per design point.
//
// Robustness is part of the subsystem: the job queue is bounded and sheds
// load with 429 + Retry-After instead of accepting unbounded work, every
// job runs under its own deadline threaded into the sweep loop as a
// context (dse.ExploreOptions.Context), and Shutdown drains in-flight and
// queued jobs before returning. /metrics exports the counters in Prometheus
// text format.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/prom"
	"repro/internal/serve/cache"
	"repro/internal/stacks"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes a Server. The zero value gets sensible defaults
// from New.
type Config struct {
	// QueueDepth bounds the number of accepted-but-not-running jobs;
	// submissions beyond it are shed with 429.
	QueueDepth int
	// Workers is the number of concurrent job executors.
	Workers int
	// SweepParallelism is the per-job sweep worker count used when a job
	// does not request its own.
	SweepParallelism int
	// CacheEntries bounds each artifact cache (workload simulations and
	// per-digest analysis/graph pairs).
	CacheEntries int
	// RetainedJobs bounds the finished-job records kept for polling.
	RetainedJobs int
	// Limits bounds individual requests; zero means DefaultLimits.
	Limits Limits
	// BaseConfig is the machine under exploration (nil: config.Baseline).
	BaseConfig *config.Config
	// AnalysisOpts are the RpStacks execution parameters (zero:
	// core.DefaultOptions).
	AnalysisOpts core.Options
	// Store, when non-nil, is the durable artifact tier: traces and analyses
	// are published to it and restarts of the service warm-start from it.
	// The caller owns opening (store.Open) and thereby chooses directory and
	// capacity bound. Nil runs memory-only, exactly the pre-store behavior.
	Store *store.Store
	// Logger receives the service's structured logs (job lifecycle, load
	// shedding, store trouble), each carrying job_id / trace_digest
	// attributes where one applies. Nil discards.
	Logger *slog.Logger
	// TraceCapacity bounds each job's flight-recorder ring (span records
	// kept per job, oldest overwritten). Zero picks a default; negative
	// disables per-job tracing entirely.
	TraceCapacity int
	// FleetStore, when non-nil, turns the server into a fleet coordinator:
	// it mounts the /fleet/v1/ chunk-lease protocol and delegates eligible
	// sweeps (regenerable workload jobs under the baseline setup) to
	// rpworker processes publishing into this shared blob root. Workers must
	// open the same directory. Nil keeps every sweep in-process.
	FleetStore *store.Shared
	// FleetLeaseTTL is the fleet lease heartbeat TTL (zero: 10s).
	FleetLeaseTTL time.Duration
	// FleetChunkSize is the points-per-lease granularity (zero: ~32 chunks
	// per sweep).
	FleetChunkSize int
	// JournalCapacity bounds the job journal's retained flight records
	// (zero: 512; negative disables the journal and its /debug/jobs
	// endpoints entirely).
	JournalCapacity int
	// JournalProgressInterval paces the journal's live progress events
	// (zero: 500ms; negative: one event per chunk — tests want every
	// observation).
	JournalProgressInterval time.Duration
	// SlowJobThreshold, when positive, logs one structured warning with the
	// per-stage breakdown for any job whose wall-clock exceeds it.
	SlowJobThreshold time.Duration
	// SLOTargets maps engine name to its latency objective; a finished job
	// is a good SLO event when it succeeded within its engine's threshold.
	// Empty disables the SLO layer.
	SLOTargets map[string]time.Duration
	// SLOObjective is the success-ratio objective shared by every target
	// (zero: 0.99).
	SLOObjective float64
	// Clock is the server's wall clock, injectable for tests (nil:
	// time.Now). It drives job timestamps, the journal, slow-job detection
	// and the SLO windows; span durations keep the tracer's own clock.
	Clock func() time.Time
}

// defaultTraceCapacity is the per-job flight-recorder ring size: enough for
// the lifecycle spans plus hundreds of sweep chunks, small enough that the
// retained-job bound keeps total trace memory modest.
const defaultTraceCapacity = 512

// Server is the exploration service. Create with New, expose as an
// http.Handler, stop with Shutdown.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	logger *slog.Logger

	metrics   *metrics
	store     *store.Store
	workloads *cache.Tiered[*workloadArtifacts]
	artifacts *cache.Tiered[*setupArtifacts]

	// fleet is the sweep coordinator when Config.FleetStore is set;
	// fleetEligible gates delegation to servers whose machine setup is the
	// one workers rebuild (baseline config, default analysis options) — a
	// mismatched setup would make every worker refuse the sweep, so such
	// servers keep sweeping locally.
	fleet         *fleet.Coordinator
	fleetEligible bool
	// fleetJobs maps an active fleet sweep ID (the hex fingerprint) to the
	// job that delegated it, so coordinator lease events land on the right
	// journal stream.
	fleetJobsMu sync.Mutex
	fleetJobs   map[string]string

	// journal is the per-job flight recorder of record — nil when disabled.
	journal *journal.Journal
	// now is Config.Clock (or time.Now); start anchors uptime reporting.
	now   func() time.Time
	start time.Time

	queue    chan *Job
	wg       sync.WaitGroup
	seq      atomic.Uint64
	draining atomic.Bool
	// submitMu serializes submissions against queue closure: Shutdown takes
	// the write side before closing the channel, so no send can race it.
	submitMu  sync.RWMutex
	closeOnce sync.Once

	// jobCtx is the parent of every job deadline; cancelled only when a
	// Shutdown deadline forces in-flight sweeps to abandon their chunks.
	jobCtx    context.Context
	jobCancel context.CancelFunc

	jobsMu    sync.Mutex
	jobs      map[string]*Job
	doneOrder []string

	// setupPrint fingerprints the machine structure, baseline latencies and
	// analysis options into every artifact cache key, so artifacts are
	// shared only between jobs that would build identical ones.
	setupPrint string
	// cfgPrint fingerprints the machine configuration alone. Workload traces
	// depend on the machine but not the analysis options, so they are keyed
	// by this narrower print — two processes differing only in analysis
	// options still share simulated traces through the durable tier.
	cfgPrint string

	// beforeJob, when non-nil, runs on the worker goroutine before each
	// job. Tests use it to hold workers busy deterministically.
	beforeJob func(*Job)
}

// workloadArtifacts is one simulated named workload: the trace, the measured
// µop stream (for the sim engine) and the trace's content digest.
type workloadArtifacts struct {
	tr     *trace.Trace
	uops   []isa.MicroOp
	digest string
}

// setupArtifacts are the content-addressed prediction engines of one trace.
type setupArtifacts struct {
	analysis *core.Analysis
	graph    *depgraph.Graph
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.SweepParallelism <= 0 {
		cfg.SweepParallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 32
	}
	if cfg.RetainedJobs <= 0 {
		cfg.RetainedJobs = 1024
	}
	if cfg.Limits == (Limits{}) {
		cfg.Limits = DefaultLimits()
	}
	if cfg.BaseConfig == nil {
		cfg.BaseConfig = config.Baseline()
	}
	if cfg.AnalysisOpts == (core.Options{}) {
		cfg.AnalysisOpts = core.DefaultOptions()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.TraceCapacity == 0 {
		cfg.TraceCapacity = defaultTraceCapacity
	}

	// A nil *store.Store must stay a nil interface, or the tiers would call
	// methods on it.
	var blob cache.BlobStore
	if cfg.Store != nil {
		blob = cfg.Store
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Server{
		cfg:       cfg,
		logger:    cfg.Logger,
		metrics:   newMetrics(),
		store:     cfg.Store,
		workloads: cache.NewTiered[*workloadArtifacts](cfg.CacheEntries, blob),
		artifacts: cache.NewTiered[*setupArtifacts](cfg.CacheEntries, blob),
		queue:     make(chan *Job, cfg.QueueDepth),
		jobs:      make(map[string]*Job),
		fleetJobs: make(map[string]string),
		now:       cfg.Clock,
		start:     time.Now(),
	}
	s.jobCtx, s.jobCancel = context.WithCancel(context.Background())
	s.metrics.reg.Gauge("rpstacks_process_start_time_seconds",
		"Unix time this process started.").Set(float64(s.start.UnixNano()) / 1e9)

	if cfg.JournalCapacity >= 0 {
		// Same nil-interface caveat as the cache tiers: a nil *store.Store
		// must stay a nil journal.Store.
		var jstore journal.Store
		if cfg.Store != nil {
			jstore = cfg.Store
		}
		s.journal = journal.New(journal.Options{
			Store:            jstore,
			Capacity:         cfg.JournalCapacity,
			ProgressInterval: cfg.JournalProgressInterval,
			Now:              s.now,
			Logger:           cfg.Logger,
		})
	}
	if len(cfg.SLOTargets) > 0 {
		s.metrics.slo = prom.NewSLO(s.metrics.reg, prom.SLOOptions{
			Prefix:    "rpstacks_slo",
			Objective: cfg.SLOObjective,
			Now:       s.now,
			OnBurn: func(class string, window time.Duration, rate float64) {
				s.logger.Warn("slo burn: error budget burning faster than the objective allows",
					slog.String("engine", class),
					slog.Duration("window", window),
					slog.Float64("burn_rate", rate))
			},
		})
		engines := make([]string, 0, len(cfg.SLOTargets))
		for engine := range cfg.SLOTargets {
			engines = append(engines, engine)
		}
		sort.Strings(engines)
		for _, engine := range engines {
			s.metrics.slo.SetTarget(engine, cfg.SLOTargets[engine])
		}
	}

	cfgJSON, _ := json.Marshal(cfg.BaseConfig)
	print := sha256.Sum256(fmt.Appendf(cfgJSON, "|%+v", cfg.AnalysisOpts))
	s.setupPrint = fmt.Sprintf("%x", print[:8])
	cfgOnly := sha256.Sum256(cfgJSON)
	s.cfgPrint = fmt.Sprintf("%x", cfgOnly[:8])

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /debug/trace", s.handleTrace)
	s.mux.HandleFunc("GET /debug/audit", s.handleAudit)
	s.mux.HandleFunc("GET /debug/jobs", s.handleDebugJobs)
	s.mux.HandleFunc("GET /debug/jobs/{id}", s.handleDebugJob)
	s.mux.HandleFunc("GET /debug/jobs/{id}/events", s.handleDebugJobEvents)
	s.mux.HandleFunc("GET /debug/status", s.handleDebugStatus)
	s.registerCollectors()

	if cfg.FleetStore != nil {
		s.fleet = fleet.NewCoordinator(fleet.CoordinatorConfig{
			Shared:   cfg.FleetStore,
			LeaseTTL: cfg.FleetLeaseTTL,
			Logger:   cfg.Logger,
			Registry: s.metrics.reg,
			OnChunkEvent: func(sweepID string, chunk int, worker, kind string) {
				if id := s.fleetJob(sweepID); id != "" {
					s.journal.FleetEvent(id, kind, chunk, worker)
				}
			},
		})
		// The coordinator's mux matches full /fleet/v1/... paths, so it
		// mounts without a strip.
		s.mux.Handle("/fleet/", s.fleet)
		s.fleetEligible = fleetDefaultsMatch(cfg.BaseConfig, cfg.AnalysisOpts)
		if !s.fleetEligible {
			cfg.Logger.Warn("serve: fleet coordinator mounted but sweeps stay local: " +
				"non-baseline machine setup cannot be rebuilt by workers")
		}
	}

	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// ServeHTTP exposes the service as an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown stops accepting jobs, drains everything already accepted —
// queued and in-flight — and waits for the workers to exit. If ctx expires
// first, running sweeps are cancelled (their jobs finish as canceled) and
// Shutdown still waits for the workers before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.submitMu.Lock()
		s.draining.Store(true)
		close(s.queue)
		s.submitMu.Unlock()
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.jobCancel()
		<-done
		return ctx.Err()
	}
}

// worker executes jobs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one job under its deadline and records the terminal
// status. A sweep that exceeds the deadline returns promptly with the
// context error (checked at every chunk boundary), so a timed-out job never
// wedges its worker.
func (s *Server) runJob(job *Job) {
	if hook := s.beforeJob; hook != nil {
		hook(job)
	}
	job.queued.End()
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	job.setStatus(JobRunning)
	s.journal.JobRunning(job.ID)

	ctx, cancel := context.WithTimeout(s.jobCtx, job.Spec.Timeout)
	start := s.now()
	res, err := s.execute(ctx, job)
	cancel()

	st := job.complete(res, err)
	job.root.End()
	s.metrics.jobFinished(st)
	elapsed := s.now().Sub(start)
	s.journal.JobFinished(job.ID, finishRecord(job, st, res, err))
	if s.metrics.slo != nil {
		s.metrics.slo.Observe(job.Spec.Engine, elapsed, st == JobDone)
	}
	if thr := s.cfg.SlowJobThreshold; thr > 0 && elapsed > thr {
		s.slowJobWarn(job, st, elapsed)
	}
	s.retire(job)

	attrs := []any{
		slog.String("job_id", job.ID),
		slog.String("status", string(st)),
		slog.String("engine", job.Spec.Engine),
		slog.Duration("elapsed", elapsed),
	}
	if res != nil {
		attrs = append(attrs, slog.String("trace_digest", res.TraceDigest))
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
		s.logger.Warn("job finished", attrs...)
		return
	}
	s.logger.Info("job finished", attrs...)
}

// finishRecord shapes a job's terminal state into the journal's Finish.
func finishRecord(job *Job, st JobStatus, res *JobResult, err error) journal.Finish {
	fin := journal.Finish{
		Status:      string(st),
		AuditStatus: job.AuditStatus(),
	}
	if err != nil {
		fin.Error = err.Error()
	}
	if res != nil {
		fin.TraceDigest = res.TraceDigest
		fin.GridPoints = res.GridPoints
		fin.BatchSize = job.Spec.BatchSize
		fin.Workers = res.Workers
		fin.SweepMS = res.SweepMS
		fin.SetupCached = res.SetupCached
		if res.Search != nil {
			fin.Search = &journal.SearchStats{
				Mode:      res.Search.Mode,
				Probes:    res.Search.Probes,
				Rounds:    res.Search.Rounds,
				Converged: res.Search.Converged,
				Feasible:  res.Search.Feasible,
				Verified:  res.Search.Verified,
			}
		}
	}
	return fin
}

// slowJobWarn logs the one structured slow-job warning, with the stage
// breakdown the journal accumulated. Called after JobFinished so the sweep
// timing has landed on the record.
func (s *Server) slowJobWarn(job *Job, st JobStatus, elapsed time.Duration) {
	attrs := []any{
		slog.String("job_id", job.ID),
		slog.String("status", string(st)),
		slog.String("engine", job.Spec.Engine),
		slog.Duration("elapsed", elapsed),
		slog.Duration("threshold", s.cfg.SlowJobThreshold),
	}
	if rec, ok := s.journal.Get(job.ID); ok {
		attrs = append(attrs,
			slog.String("trace_digest", rec.TraceDigest),
			slog.Float64("queue_ms", rec.QueueMS),
			slog.Float64("setup_ms", rec.SetupMS),
			slog.Float64("sweep_ms", rec.SweepMS),
			slog.Float64("assemble_ms", rec.AssembleMS))
	}
	s.logger.Warn("slow job: wall-clock exceeded threshold", attrs...)
}

// execute runs the three phases of a job — obtain the trace, obtain the
// prediction engine, sweep the grid — with the first two memoized in the
// content-addressed caches, the context checked between phases, and every
// phase recorded into the job's flight recorder.
func (s *Server) execute(ctx context.Context, job *Job) (*JobResult, error) {
	spec := job.Spec
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	setupStart := time.Now()
	setup := job.tracer.StartChild(job.root.ID(), obs.CatJob, obs.NameSetup)

	// Phase 1: the trace (simulate the named workload, or use the upload).
	tr, uops, digest := spec.Trace, []isa.MicroOp(nil), spec.TraceDigest
	cached := true
	if spec.Trace == nil {
		wa, tier, err := s.workloads.GetOrComputeTraced(job.tracer, setup.ID(),
			s.workloadDiskKey(spec), s.workloadCodec(spec),
			func() (*workloadArtifacts, time.Duration, error) {
				return s.buildWorkload(spec, job.tracer, setup.ID())
			})
		if err != nil {
			setup.End()
			return nil, err
		}
		tr, uops, digest = wa.tr, wa.uops, wa.digest
		cached = cached && tier.Cached()
	}
	if err := ctx.Err(); err != nil {
		setup.End()
		return nil, err
	}

	// Phase 2: the prediction engine, content-addressed by trace digest.
	var art *setupArtifacts
	if spec.Engine != "sim" {
		var tier cache.Tier
		var err error
		art, tier, err = s.artifacts.GetOrComputeTraced(job.tracer, setup.ID(),
			digest+"|"+s.setupPrint, s.setupCodec(tr),
			func() (*setupArtifacts, time.Duration, error) {
				return s.buildArtifacts(tr)
			})
		if err != nil {
			setup.End()
			return nil, err
		}
		cached = cached && tier.Cached()
	}
	setup.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	setupWall := time.Since(setupStart)
	in := dse.EngineInputs{Cfg: s.cfg.BaseConfig, UOps: uops}
	if art != nil {
		in.Analysis, in.Graph = art.analysis, art.graph
	}
	eng, err := dse.NewEngine(spec.Engine, in)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	// Phase 3: the sweep, cancellable at chunk granularity. The sweep root
	// span is created by the dse driver itself, nested under the job.
	par := spec.Parallelism
	if par == 0 {
		par = s.cfg.SweepParallelism
	}
	if spec.Search != nil {
		// Guided search: probes the space lazily — never materialize the
		// grid, which may be far beyond MaxGridPoints for search jobs.
		return s.executeSearch(ctx, job, eng, tr, art, digest, setupWall, cached, par)
	}
	points := spec.Space.Enumerate(s.cfg.BaseConfig.Lat)
	opts := dse.ExploreOptions{
		Parallelism: par,
		BatchSize:   spec.BatchSize,
		Context:     ctx,
		Setup:       setupWall,
		Tracer:      job.tracer,
		TraceParent: job.root.ID(),
		// Audited jobs need the sweep fingerprint: it seeds the auditor's
		// deterministic point sample.
		NeedFingerprint: spec.AuditFraction > 0,
	}
	var rep *dse.Report
	if s.fleet != nil && s.fleetEligible && spec.Trace == nil {
		// Distributed sweep: workers regenerate the engine inputs from the
		// job recipe; uploaded traces have no recipe and stay local.
		rep, err = s.fleetSweep(ctx, job, eng, points, setupWall, false)
	} else {
		rep, err = dse.Explore(eng, points, opts)
	}
	if err != nil {
		return nil, err
	}
	s.metrics.observeSweep(spec.Engine, rep.Wall,
		fmt.Sprintf("job_id=%q,trace_digest=%q", job.ID, digest))

	// Phase 4 (audited jobs only): the shadow accuracy audit. It reads the
	// sweep report, re-simulates a fingerprint-sampled subset of points
	// under the remaining job deadline, and never changes the job's
	// predictions — a drifting audit flips the audit status, not the result.
	if spec.AuditFraction > 0 {
		if err := s.auditSweep(ctx, job, rep, art, digest, par); err != nil {
			return nil, err
		}
	}
	return rankResults(spec, tr, digest, rep, setupWall, cached), nil
}

// executeSearch runs phase 3 of a guided-search job: the lazy probe loop
// through the job's engine (or, when eligible, the sweep fleet — each probe
// round becomes one distributed sweep over the round's points), online
// verification of every returned optimum through an audit oracle, and the
// rendering of the SearchResult into the job's result shape.
func (s *Server) executeSearch(ctx context.Context, job *Job, eng *dse.Engine, tr *trace.Trace,
	art *setupArtifacts, digest string, setupWall time.Duration, cached bool, par int) (*JobResult, error) {
	spec := job.Spec
	opts := dse.SearchOptions{
		ExploreOptions: dse.ExploreOptions{
			Parallelism: par,
			BatchSize:   spec.BatchSize,
			Context:     ctx,
			Setup:       setupWall,
			Tracer:      job.tracer,
			TraceParent: job.root.ID(),
		},
		MicroOps: len(tr.Records),
	}
	// Online verification: a named workload re-simulates ground truth at
	// each returned optimum — the same oracle recipe the shadow audit
	// uses. An uploaded trace has no regeneration recipe, so the graph
	// oracle re-derives the dependence-graph longest path instead (exact
	// for graph-engine searches, a model cross-check for rpstacks).
	var oracle audit.Oracle
	if spec.Workload != "" {
		sim, err := s.simOracle(spec)
		if err != nil {
			return nil, err
		}
		oracle = sim
	} else {
		oracle = &audit.GraphOracle{Graph: art.graph}
	}
	opts.Verify = func(l stacks.Latencies) (float64, error) {
		c, _, err := oracle.Truth(ctx, l)
		return c, err
	}
	if s.fleet != nil && s.fleetEligible && spec.Trace == nil {
		opts.RoundEval = func(rctx context.Context, pts []stacks.Latencies) ([]float64, error) {
			rep, err := s.fleetSweep(rctx, job, eng, pts, 0, true)
			if err != nil {
				return nil, err
			}
			out := make([]float64, len(rep.Results))
			for i, r := range rep.Results {
				out[i] = r.Cycles
			}
			return out, nil
		}
	}
	res, err := dse.Search(eng, s.cfg.BaseConfig.Lat, &spec.Space, spec.Search, opts)
	if err != nil {
		return nil, err
	}
	s.metrics.observeSweep(spec.Engine, res.Wall,
		fmt.Sprintf("job_id=%q,trace_digest=%q", job.ID, digest))
	s.metrics.observeSearch(res)
	return searchResults(spec, tr, digest, res, setupWall, cached, par), nil
}

// searchResults renders a finished guided search as the job result: the
// verified optimum (halving, target) or the cycles-ascending Pareto
// frontier as the point list, plus the probe-loop summary.
func searchResults(spec *JobSpec, tr *trace.Trace, digest string, res *dse.SearchResult,
	setup time.Duration, cached bool, par int) *JobResult {
	uopsN := float64(len(tr.Records))
	var sps []dse.SearchPoint
	if res.Best != nil {
		sps = append(sps, *res.Best)
	}
	sps = append(sps, res.Frontier...)
	pts := make([]PointResult, len(sps))
	for k, p := range sps {
		lat := make(map[string]float64, len(spec.Space.Axes))
		for _, ax := range spec.Space.Axes {
			lat[ax.Event.String()] = p.Lat[ax.Event]
		}
		pts[k] = PointResult{
			Latencies:    lat,
			Cycles:       p.Cycles,
			CPI:          p.Cycles / uopsN,
			Cost:         p.Cost,
			VerifyErrPct: p.VerifyErrPct,
		}
	}
	meeting := 0
	if res.Mode == dse.SearchTarget && res.Feasible {
		meeting = 1
	}
	return &JobResult{
		Engine:      spec.Engine,
		TraceDigest: digest,
		GridPoints:  int(res.GridPoints),
		MicroOps:    len(tr.Records),
		Meeting:     meeting,
		SetupMS:     float64(setup) / float64(time.Millisecond),
		SetupCached: cached,
		SweepMS:     float64(res.Wall) / float64(time.Millisecond),
		Workers:     par,
		Points:      pts,
		Search: &SearchSummary{
			Mode:            res.Mode,
			GridPoints:      int(res.GridPoints),
			Probes:          res.Probes,
			ResumedProbes:   res.ResumedProbes,
			Rounds:          res.Rounds,
			PeakBoxes:       res.PeakBoxes,
			Converged:       res.Converged,
			Feasible:        res.Feasible,
			FrontierSize:    len(res.Frontier),
			Verified:        res.Verified,
			VerifyMaxErrPct: res.VerifyMaxErrPct,
		},
	}
}

// auditSweep runs the shadow audit of a finished sweep and publishes its
// report: onto the job (audit status + /debug/audit), into the durable store
// when one is mounted (so the report survives restarts), and into the audit
// metric families point by point.
func (s *Server) auditSweep(ctx context.Context, job *Job, rep *dse.Report, art *setupArtifacts, digest string, par int) error {
	spec := job.Spec
	oracle, err := s.simOracle(spec)
	if err != nil {
		return err
	}
	var decompose func(*stacks.Latencies) stacks.Stack
	switch spec.Engine {
	case "rpstacks":
		decompose = audit.RpStacksDecompose(art.analysis)
	case "graph":
		decompose = audit.GraphDecompose(art.graph)
	}
	arep, err := audit.Run(rep, oracle, decompose, audit.Options{
		Fraction:    spec.AuditFraction,
		Seed:        spec.AuditSeed,
		MaxPoints:   s.cfg.Limits.MaxAuditPoints,
		Parallelism: par,
		DriftPct:    spec.AuditDriftPct,
		Logger:      s.logger,
		JobID:       job.ID,
		Context:     ctx,
		Tracer:      job.tracer,
		TraceParent: job.root.ID(),
		OnPoint: func(p audit.PointAudit) {
			s.metrics.observeAuditPoint(p, job.ID, digest)
		},
	})
	if err != nil {
		return fmt.Errorf("serve: auditing sweep: %w", err)
	}
	s.metrics.auditPoints.With("skipped_budget").Add(float64(arep.Skipped))
	job.setAudit(arep)
	if arep.Status != "ok" {
		s.logger.Warn("audit drift: job predictions exceeded the error threshold",
			slog.String("job_id", job.ID),
			slog.String("trace_digest", digest),
			slog.Float64("max_error_pct", arep.MaxErrorPct),
			slog.Int("drifted", arep.Drifted))
	}
	if s.store != nil {
		payload, err := json.Marshal(arep)
		if err != nil {
			return fmt.Errorf("serve: encoding audit report: %w", err)
		}
		if err := s.store.Put(auditKey(job.ID), payload, 0); err != nil {
			// Persistence is best-effort: the report still serves from
			// memory for the job's retained lifetime.
			s.logger.Warn("audit report not persisted",
				slog.String("job_id", job.ID), slog.String("error", err.Error()))
		}
	}
	return nil
}

// simOracle is the ground-truth recipe of a named-workload job, shared by
// the shadow audit and the online verification of search optima: it replays
// the exact recipe of the job's baseline trace — regenerate the
// deterministic µop stream (cheap), warm, and re-simulate at each point.
func (s *Server) simOracle(spec *JobSpec) (*audit.SimOracle, error) {
	gen, stream, cut, err := measuredRegion(spec)
	if err != nil {
		return nil, err
	}
	return &audit.SimOracle{
		Cfg:       s.cfg.BaseConfig,
		CodeLines: gen.CodeLines(),
		DataLines: gen.DataLines(),
		Warm:      stream[:cut],
		UOps:      stream[cut:],
	}, nil
}

// auditKey is the durable-store key of one job's audit report. Job IDs are
// sequential per process, so a restarted service eventually reuses them and
// overwrites the older report — acceptable for a debugging artifact.
func auditKey(jobID string) string { return "audit|" + jobID }

// workloadKey identifies one named-workload simulation; the analysis layer
// above it is keyed by content digest instead.
func workloadKey(spec *JobSpec) string {
	return fmt.Sprintf("%s|seed=%d|n=%d", spec.Workload, spec.Seed, spec.MicroOps)
}

// workloadDiskKey is the workload key as published to the durable tier.
// Unlike the per-process memory table, the store outlives configuration
// changes, so the machine fingerprint is part of the key: a trace simulated
// under one machine must never satisfy a request under another.
func (s *Server) workloadDiskKey(spec *JobSpec) string {
	return "w|" + s.cfgPrint + "|" + workloadKey(spec)
}

// measuredRegion regenerates a named workload's deterministic µop stream
// and the warmup cut: 3x the measured length of functional warmup, snapped
// forward to a macro-op boundary. Generation is cheap and bit-reproducible
// from (profile, seed), which is what lets the durable tier persist only
// the simulated trace.
func measuredRegion(spec *JobSpec) (*workload.Generator, []isa.MicroOp, int, error) {
	prof, ok := workload.ByName(spec.Workload)
	if !ok {
		return nil, nil, 0, fmt.Errorf("serve: unknown workload %q", spec.Workload)
	}
	gen := workload.NewGenerator(prof, spec.Seed)
	warm := 3 * spec.MicroOps
	stream := gen.Take(warm + spec.MicroOps)
	cut := warm
	for cut < len(stream) && !stream[cut].SoM {
		cut++
	}
	return gen, stream, cut, nil
}

// buildWorkload simulates the named workload once: functional warmup, then
// the traced region. The returned cost is what later cache hits avoid
// re-paying.
func (s *Server) buildWorkload(spec *JobSpec, otr *obs.Tracer, parent uint64) (*workloadArtifacts, time.Duration, error) {
	start := time.Now()
	gen, stream, cut, err := measuredRegion(spec)
	if err != nil {
		return nil, 0, err
	}
	sim, err := cpu.New(s.cfg.BaseConfig)
	if err != nil {
		return nil, 0, err
	}
	sim.SetTracer(otr, parent)
	sim.WarmCode(gen.CodeLines())
	sim.WarmData(gen.DataLines())
	sim.WarmUp(stream[:cut])
	tr, err := sim.Run(stream[cut:])
	if err != nil {
		return nil, 0, fmt.Errorf("serve: simulating %s: %w", spec.Workload, err)
	}
	wa := &workloadArtifacts{tr: tr, uops: stream[cut:], digest: trace.Digest(tr)}
	return wa, time.Since(start), nil
}

// workloadCodec persists a simulated workload as its canonical trace
// encoding. The µop stream is not stored: it regenerates bit-identically
// from (profile, seed), so decode replays the cheap generation and pays
// none of the simulation. The digest is recomputed from the decoded trace,
// making a served artifact content-verified end to end.
func (s *Server) workloadCodec(spec *JobSpec) cache.Codec[*workloadArtifacts] {
	return cache.Codec[*workloadArtifacts]{
		Encode: func(wa *workloadArtifacts) ([]byte, error) {
			var buf bytes.Buffer
			if err := trace.Write(&buf, wa.tr); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		Decode: func(raw []byte) (*workloadArtifacts, error) {
			tr, err := trace.Read(bytes.NewReader(raw))
			if err != nil {
				return nil, err
			}
			_, stream, cut, err := measuredRegion(spec)
			if err != nil {
				return nil, err
			}
			uops := stream[cut:]
			if len(tr.Records) != len(uops) {
				return nil, fmt.Errorf("serve: stored trace has %d records, workload generates %d µops",
					len(tr.Records), len(uops))
			}
			return &workloadArtifacts{tr: tr, uops: uops, digest: trace.Digest(tr)}, nil
		},
	}
}

// setupCodec persists the prediction engine as the analysis codec alone.
// The dependence graph references trace records and is O(n) to rebuild, so
// decode reconstructs it from the trace already in hand (phase 1) rather
// than storing a second, larger artifact.
func (s *Server) setupCodec(tr *trace.Trace) cache.Codec[*setupArtifacts] {
	return cache.Codec[*setupArtifacts]{
		Encode: func(art *setupArtifacts) ([]byte, error) {
			var buf bytes.Buffer
			if err := core.WriteAnalysis(&buf, art.analysis); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		Decode: func(raw []byte) (*setupArtifacts, error) {
			analysis, err := core.ReadAnalysis(bytes.NewReader(raw))
			if err != nil {
				return nil, err
			}
			g, err := depgraph.Build(tr, &s.cfg.BaseConfig.Structure, 0, len(tr.Records))
			if err != nil {
				return nil, err
			}
			return &setupArtifacts{analysis: analysis, graph: g}, nil
		},
	}
}

// buildArtifacts runs the expensive one-time analysis of a trace: the
// RpStacks representative-stack extraction and the whole-trace dependence
// graph, both reusable for any latency configuration of the structure.
func (s *Server) buildArtifacts(tr *trace.Trace) (*setupArtifacts, time.Duration, error) {
	start := time.Now()
	analysis, err := core.Analyze(tr, &s.cfg.BaseConfig.Structure, &s.cfg.BaseConfig.Lat, s.cfg.AnalysisOpts)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: analyzing trace: %w", err)
	}
	g, err := depgraph.Build(tr, &s.cfg.BaseConfig.Structure, 0, len(tr.Records))
	if err != nil {
		return nil, 0, fmt.Errorf("serve: building graph: %w", err)
	}
	return &setupArtifacts{analysis: analysis, graph: g}, time.Since(start), nil
}

// rankResults orders a sweep's results deterministically — ascending
// cycles, original point index breaking ties — filters by the CPI target
// when one is set, and truncates to the requested top count.
func rankResults(spec *JobSpec, tr *trace.Trace, digest string, rep *dse.Report, setup time.Duration, cached bool) *JobResult {
	results := rep.Results
	uopsN := float64(len(tr.Records))
	idx := make([]int, len(results))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if results[a].Cycles != results[b].Cycles {
			return results[a].Cycles < results[b].Cycles
		}
		return a < b
	})
	meeting := 0
	selected := idx
	if spec.TargetCPI > 0 {
		budget := spec.TargetCPI * uopsN
		keep := selected[:0:0]
		for _, i := range idx {
			if results[i].Cycles <= budget {
				keep = append(keep, i)
			}
		}
		meeting = len(keep)
		selected = keep
	}
	if len(selected) > spec.Top {
		selected = selected[:spec.Top]
	}
	pts := make([]PointResult, len(selected))
	for k, i := range selected {
		lat := make(map[string]float64, len(spec.Space.Axes))
		for _, ax := range spec.Space.Axes {
			lat[ax.Event.String()] = results[i].Lat[ax.Event]
		}
		pts[k] = PointResult{Latencies: lat, Cycles: results[i].Cycles, CPI: results[i].Cycles / uopsN}
	}
	return &JobResult{
		Engine:      spec.Engine,
		TraceDigest: digest,
		GridPoints:  len(results),
		MicroOps:    len(tr.Records),
		Meeting:     meeting,
		SetupMS:     float64(setup) / float64(time.Millisecond),
		SetupCached: cached,
		SweepMS:     float64(rep.Wall) / float64(time.Millisecond),
		Workers:     len(rep.Workers),
		Points:      pts,
	}
}

// --- job registry --------------------------------------------------------

func (s *Server) register(job *Job) {
	s.jobsMu.Lock()
	s.jobs[job.ID] = job
	s.jobsMu.Unlock()
}

func (s *Server) unregister(id string) {
	s.jobsMu.Lock()
	delete(s.jobs, id)
	s.jobsMu.Unlock()
}

// retire enforces the finished-job retention bound.
func (s *Server) retire(job *Job) {
	s.jobsMu.Lock()
	s.doneOrder = append(s.doneOrder, job.ID)
	for len(s.doneOrder) > s.cfg.RetainedJobs {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
	s.jobsMu.Unlock()
}

func (s *Server) lookup(id string) (*Job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// --- HTTP handlers -------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func errJSON(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.Limits.MaxBodyBytes))
	if err != nil {
		s.metrics.invalid.Inc()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			errJSON(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		errJSON(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	spec, err := ParseJobRequest(body, s.cfg.Limits)
	if err != nil {
		s.metrics.invalid.Inc()
		errJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	job := &Job{
		ID:        fmt.Sprintf("job-%06d", s.seq.Add(1)),
		Spec:      spec,
		Submitted: s.now(),
		status:    JobQueued,
	}
	if s.cfg.TraceCapacity > 0 {
		jobID := job.ID
		job.tracer = obs.NewTracer(s.cfg.TraceCapacity, obs.WithOnEnd(func(rec obs.Record) {
			s.metrics.observeSpan(rec)
			s.journal.ObserveSpan(jobID, rec)
		}))
	}
	job.root = job.tracer.Start(obs.CatJob, "job")
	job.root.SetDetail(job.ID)
	job.queued = job.tracer.StartChild(job.root.ID(), obs.CatJob, obs.NameQueueWait)

	s.submitMu.RLock()
	if s.draining.Load() {
		s.submitMu.RUnlock()
		errJSON(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.register(job)
	s.journal.JobQueued(job.ID, journal.Record{
		Engine:      spec.Engine,
		Workload:    spec.Workload,
		TraceDigest: spec.TraceDigest,
		GridPoints:  spec.GridSize,
		BatchSize:   spec.BatchSize,
		Submitted:   job.Submitted,
	})
	select {
	case s.queue <- job:
		s.submitMu.RUnlock()
		s.metrics.submitted.Inc()
		s.logger.Info("job accepted",
			slog.String("job_id", job.ID),
			slog.String("engine", spec.Engine),
			slog.Int("grid_points", spec.GridSize))
		w.Header().Set("Location", "/jobs/"+job.ID)
		writeJSON(w, http.StatusAccepted, job.view(false))
	default:
		s.submitMu.RUnlock()
		s.unregister(job.ID)
		s.journal.Discard(job.ID)
		s.metrics.rejected.Inc()
		s.logger.Warn("job rejected: queue full",
			slog.String("job_id", job.ID),
			slog.Int("queue_capacity", cap(s.queue)))
		w.Header().Set("Retry-After", "1")
		errJSON(w, http.StatusTooManyRequests, "job queue is full (depth %d); retry later", cap(s.queue))
	}
}

// handleTrace serves a job's flight recorder: Chrome trace-event JSON by
// default (Perfetto / chrome://tracing loadable), collapsed flamegraph
// stacks with ?format=folded. A fleet-delegated job whose worker trace
// fragments were collected serves the *merged* multi-process timeline —
// the server's own track plus one skew-normalized track per worker — in
// both formats; locally-run jobs serve the single-process view as always.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("job")
	job, ok := s.lookup(id)
	if !ok {
		errJSON(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	recs := job.Trace()
	if recs == nil {
		errJSON(w, http.StatusNotFound, "job %s has no trace (tracing disabled)", id)
		return
	}
	frags := job.FleetFragments()
	switch r.URL.Query().Get("format") {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		if len(frags) > 0 {
			_ = obs.WriteChromeTimeline(w, obs.MergeTimeline("rpserved", recs, frags))
		} else {
			_ = obs.WriteChromeTrace(w, recs)
		}
	case "folded":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if len(frags) > 0 {
			recs = obs.MergeTimeline("rpserved", recs, frags).Flatten()
		}
		_ = obs.WriteFolded(w, recs)
	default:
		errJSON(w, http.StatusBadRequest, "unknown trace format %q (want chrome or folded)", r.URL.Query().Get("format"))
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		errJSON(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.view(true))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.jobsMu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.jobsMu.Unlock()
	sort.Strings(ids)
	views := make([]jobView, 0, len(ids))
	for _, id := range ids {
		if job, ok := s.lookup(id); ok {
			views = append(views, job.view(false))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"queue_depth":    len(s.queue),
		"workers":        s.cfg.Workers,
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// handleReady is the load-balancer readiness probe, distinct from /healthz
// (which always answers 200 while the process lives): a draining server and
// a server whose queue is full — the state in which submissions are being
// shed with 429 — both answer 503 so traffic is routed elsewhere first.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
	case len(s.queue) == cap(s.queue):
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":      "shedding",
			"queue_depth": len(s.queue),
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status":      "ready",
			"queue_depth": len(s.queue),
		})
	}
}

// handleAudit serves a job's shadow-audit report: from the live job when it
// is still retained, falling back to the durable store — which is how the
// report outlives a service restart.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("job")
	if job, ok := s.lookup(id); ok {
		if arep := job.Audit(); arep != nil {
			writeJSON(w, http.StatusOK, arep)
			return
		}
		if job.Spec.AuditFraction > 0 && job.Status() != JobDone {
			errJSON(w, http.StatusNotFound, "job %s has no audit report yet", id)
			return
		}
		errJSON(w, http.StatusNotFound, "job %s was not audited (submit with audit_fraction > 0)", id)
		return
	}
	if s.store != nil {
		if raw, _, ok := s.store.Get(auditKey(id)); ok {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(raw)
			return
		}
	}
	errJSON(w, http.StatusNotFound, "no audit report for job %q", id)
}
