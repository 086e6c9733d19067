package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/dse"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Limits bounds what one job request may ask of the service, and carries
// the defaults applied to omitted fields. Every bound is enforced by
// ParseJobRequest before a job touches the queue, mirroring the
// capped-allocation stance of trace.Read: malformed or absurd requests are
// rejected with an error, never absorbed as unbounded work or memory.
type Limits struct {
	// MaxBodyBytes bounds the request body (the trace upload dominates).
	MaxBodyBytes int64
	// MaxGridPoints bounds the full-factorial design-space size.
	MaxGridPoints int
	// MaxAxes bounds the number of latency axes.
	MaxAxes int
	// MaxAxisValues bounds the candidate values on one axis.
	MaxAxisValues int
	// MaxMicroOps bounds the measured µops of a named-workload simulation.
	MaxMicroOps int
	// MaxTraceBytes bounds the decoded size of an uploaded trace.
	MaxTraceBytes int
	// MaxTop bounds how many ranked results one job may return.
	MaxTop int
	// MaxTimeout and DefaultTimeout bound and default the per-job deadline.
	MaxTimeout     time.Duration
	DefaultTimeout time.Duration
	// MaxParallelism bounds the per-job sweep worker count; DefaultParallelism
	// is used when the request leaves it zero.
	MaxParallelism     int
	DefaultParallelism int
	// MaxBatchSize bounds an explicit batch_size: the lane count of the
	// batched evaluator scratch every sweep worker allocates. Zero in a
	// request autotunes within the engines' own memory caps, so only explicit
	// widths need a ceiling.
	MaxBatchSize int
	// DefaultTop and DefaultMicroOps fill omitted request fields.
	DefaultTop      int
	DefaultMicroOps int
	// MaxAuditPoints caps how many design points one job's shadow audit may
	// re-simulate, whatever audit_fraction asks for — ground truth costs a
	// full simulation per point, so the fraction alone is not a bound.
	MaxAuditPoints int
}

// DefaultLimits returns the service defaults.
func DefaultLimits() Limits {
	return Limits{
		MaxBodyBytes:       8 << 20,
		MaxGridPoints:      1 << 20,
		MaxAxes:            8,
		MaxAxisValues:      64,
		MaxMicroOps:        200_000,
		MaxTraceBytes:      64 << 20,
		MaxTop:             1000,
		MaxTimeout:         10 * time.Minute,
		DefaultTimeout:     2 * time.Minute,
		MaxParallelism:     256,
		DefaultParallelism: 0, // Server.New fills this from its Config
		MaxBatchSize:       1024,
		DefaultTop:         10,
		DefaultMicroOps:    20_000,
		MaxAuditPoints:     64,
	}
}

// JobRequest is the submission body of POST /jobs. Exactly one of Workload
// and TraceB64 names the subject: a built-in synthetic workload to simulate,
// or an uploaded RPTRC trace (base64 of the cmd/rptrace binary format).
// Axes use the same textual form as cmd/rpexplore's -axis flag.
type JobRequest struct {
	Workload    string   `json:"workload,omitempty"`
	TraceB64    string   `json:"trace_b64,omitempty"`
	Axes        []string `json:"axes"`
	Engine      string   `json:"engine,omitempty"`      // rpstacks (default), graph or sim
	TargetCPI   float64  `json:"target_cpi,omitempty"`  // 0: rank everything
	Top         int      `json:"top,omitempty"`         // ranked results to return
	MicroOps    int      `json:"micro_ops,omitempty"`   // workload jobs: measured µops
	Seed        int64    `json:"seed,omitempty"`        // workload jobs: generator seed
	Parallelism int      `json:"parallelism,omitempty"` // sweep workers
	BatchSize   int      `json:"batch_size,omitempty"`  // design points per model pass (0: autotuned, 1: scalar; rpstacks/graph only)
	TimeoutMS   int64    `json:"timeout_ms,omitempty"`  // per-job deadline

	// AuditFraction enables the shadow accuracy audit: the share of the
	// design grid whose ground truth is re-simulated and scored against the
	// sweep's predictions (0: off, 1: every point, subject to
	// Limits.MaxAuditPoints). Named-workload rpstacks/graph jobs only.
	AuditFraction float64 `json:"audit_fraction,omitempty"`
	// AuditSeed varies the deterministic point sample.
	AuditSeed uint64 `json:"audit_seed,omitempty"`
	// AuditDriftPct overrides the per-point error threshold (percent)
	// beyond which the job's audit status flips to drift (0: the default).
	AuditDriftPct float64 `json:"audit_drift_pct,omitempty"`

	// Search switches the job from an exhaustive sweep to a guided search,
	// in the compact textual form shared with cmd/rpexplore's -search flag:
	// "halving", "pareto;rounds=40", "target;cpi=0.55;cost=L1D:2,...". A
	// search job probes design points lazily, so its grid may exceed
	// MaxGridPoints — the axes are still bounded per-axis, and every
	// returned optimum is verified online against an audit oracle (making
	// audit_fraction redundant and rejected). A target-mode search with no
	// cpi key borrows target_cpi.
	Search string `json:"search,omitempty"`
}

// JobSpec is the validated, executable form of a JobRequest.
type JobSpec struct {
	Workload    string
	Trace       *trace.Trace // non-nil for uploaded-trace jobs
	TraceDigest string       // content address; filled at parse time for uploads
	Space       dse.Space
	GridSize    int
	Engine      string
	TargetCPI   float64
	Top         int
	MicroOps    int
	Seed        int64
	Parallelism int
	BatchSize   int
	Timeout     time.Duration

	AuditFraction float64
	AuditSeed     uint64
	AuditDriftPct float64

	// Search is non-nil for guided-search jobs; GridSize is then the
	// (possibly MaxInt-saturated) size of the grid an exhaustive sweep
	// would have cost, not a materialization bound.
	Search *dse.SearchSpec
}

// ParseJobRequest decodes and validates one job submission against the
// limits. Unknown fields, missing subjects, duplicate or malformed axes,
// grids beyond MaxGridPoints (checked without ever materializing them) and
// oversized or corrupt trace uploads are all rejected with an error —
// every error here maps to HTTP 400.
func ParseJobRequest(body []byte, lim Limits) (*JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("serve: decoding job request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("serve: trailing data after job request")
	}
	return req.validate(lim)
}

func (req *JobRequest) validate(lim Limits) (*JobSpec, error) {
	spec := &JobSpec{
		Workload:  req.Workload,
		TargetCPI: req.TargetCPI,
		Seed:      req.Seed,
	}

	// Subject: exactly one of workload / trace upload.
	switch {
	case req.Workload == "" && req.TraceB64 == "":
		return nil, fmt.Errorf("serve: job needs a workload name or a trace_b64 upload")
	case req.Workload != "" && req.TraceB64 != "":
		return nil, fmt.Errorf("serve: workload and trace_b64 are mutually exclusive")
	case req.Workload != "":
		if _, ok := workload.ByName(req.Workload); !ok {
			return nil, fmt.Errorf("serve: unknown workload %q", req.Workload)
		}
	}

	// Engine.
	spec.Engine = req.Engine
	if spec.Engine == "" {
		spec.Engine = "rpstacks"
	}
	if _, err := dse.EngineMethod(spec.Engine); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if spec.Engine == "sim" && req.TraceB64 != "" {
		return nil, fmt.Errorf("serve: the sim engine re-simulates and needs a named workload, not a trace upload")
	}

	// Axes and grid size, via the same parser as cmd/rpexplore's -axis.
	if len(req.Axes) == 0 {
		return nil, fmt.Errorf("serve: job needs at least one axis")
	}
	if len(req.Axes) > lim.MaxAxes {
		return nil, fmt.Errorf("serve: %d axes exceed the limit of %d", len(req.Axes), lim.MaxAxes)
	}
	for _, raw := range req.Axes {
		ax, err := dse.ParseAxisSpec(raw)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if len(ax.Values) > lim.MaxAxisValues {
			return nil, fmt.Errorf("serve: axis %s has %d values, limit %d", ax.Event, len(ax.Values), lim.MaxAxisValues)
		}
		spec.Space.Axes = append(spec.Space.Axes, ax)
	}
	if err := spec.Space.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if req.Search != "" {
		ss, err := dse.ParseSearchSpec(req.Search)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if ss.Mode == dse.SearchTarget && ss.TargetCPI == 0 {
			ss.TargetCPI = req.TargetCPI // borrow the sweep-style budget field
		}
		if err := ss.Validate(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if ss.Mode == dse.SearchTarget && ss.TargetCPI == 0 {
			return nil, fmt.Errorf("serve: a target search needs a cpi budget (search key cpi, or target_cpi)")
		}
		if ss.Mode != dse.SearchTarget && req.TargetCPI > 0 {
			return nil, fmt.Errorf("serve: target_cpi with a %s search is meaningless; use mode %s", ss.Mode, dse.SearchTarget)
		}
		// A search probes lazily, so the grid may exceed MaxGridPoints —
		// the plan itself still bounds the index space and validates the
		// cost model against the axes.
		if _, err := dse.NewSearchPlan(&spec.Space, ss); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		spec.Search = ss
		spec.GridSize, _ = spec.Space.SizeSaturating()
	} else {
		size, ok := spec.Space.SizeWithin(lim.MaxGridPoints)
		if !ok {
			return nil, fmt.Errorf("serve: design grid exceeds the %d-point limit (a search mode lifts it)", lim.MaxGridPoints)
		}
		spec.GridSize = size
	}

	// Scalars with defaults and caps.
	switch {
	case req.Top < 0:
		return nil, fmt.Errorf("serve: negative top %d", req.Top)
	case req.Top == 0:
		spec.Top = lim.DefaultTop
	case req.Top > lim.MaxTop:
		return nil, fmt.Errorf("serve: top %d exceeds the limit of %d", req.Top, lim.MaxTop)
	default:
		spec.Top = req.Top
	}
	switch {
	case req.TimeoutMS < 0:
		return nil, fmt.Errorf("serve: negative timeout_ms %d", req.TimeoutMS)
	case req.TimeoutMS == 0:
		spec.Timeout = lim.DefaultTimeout
	case time.Duration(req.TimeoutMS)*time.Millisecond > lim.MaxTimeout:
		return nil, fmt.Errorf("serve: timeout_ms %d exceeds the limit of %v", req.TimeoutMS, lim.MaxTimeout)
	default:
		spec.Timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	switch {
	case req.Parallelism < 0:
		return nil, fmt.Errorf("serve: negative parallelism %d", req.Parallelism)
	case req.Parallelism > lim.MaxParallelism:
		return nil, fmt.Errorf("serve: parallelism %d exceeds the limit of %d", req.Parallelism, lim.MaxParallelism)
	default:
		spec.Parallelism = req.Parallelism // 0 resolves to the server default at run time
	}
	switch {
	case req.BatchSize < 0:
		return nil, fmt.Errorf("serve: negative batch_size %d", req.BatchSize)
	case req.BatchSize > lim.MaxBatchSize:
		return nil, fmt.Errorf("serve: batch_size %d exceeds the limit of %d", req.BatchSize, lim.MaxBatchSize)
	case req.BatchSize > 0 && spec.Engine == "sim":
		return nil, fmt.Errorf("serve: the sim engine has no batched form; batch_size applies to rpstacks and graph jobs")
	default:
		spec.BatchSize = req.BatchSize // 0 autotunes in the sweep engine
	}
	if math.IsNaN(req.TargetCPI) || math.IsInf(req.TargetCPI, 0) || req.TargetCPI < 0 {
		return nil, fmt.Errorf("serve: target_cpi %g is not a finite non-negative value", req.TargetCPI)
	}

	// Shadow audit: ground truth is a re-simulation of the named workload,
	// so trace uploads cannot be audited; auditing the sim engine would
	// re-simulate what was already simulated.
	switch {
	case math.IsNaN(req.AuditFraction) || math.IsInf(req.AuditFraction, 0) ||
		req.AuditFraction < 0 || req.AuditFraction > 1:
		return nil, fmt.Errorf("serve: audit_fraction %g outside [0, 1]", req.AuditFraction)
	case req.AuditFraction > 0 && req.Search != "":
		return nil, fmt.Errorf("serve: search optima are verified online by an audit oracle; audit_fraction applies to exhaustive sweeps")
	case req.AuditFraction > 0 && req.Workload == "":
		return nil, fmt.Errorf("serve: the audit re-simulates ground truth and needs a named workload, not a trace upload")
	case req.AuditFraction > 0 && spec.Engine == "sim":
		return nil, fmt.Errorf("serve: the sim engine is already ground truth; audit applies to rpstacks and graph jobs")
	case req.AuditFraction == 0 && (req.AuditSeed != 0 || req.AuditDriftPct != 0):
		return nil, fmt.Errorf("serve: audit_seed and audit_drift_pct need audit_fraction > 0")
	case math.IsNaN(req.AuditDriftPct) || math.IsInf(req.AuditDriftPct, 0) || req.AuditDriftPct < 0:
		return nil, fmt.Errorf("serve: audit_drift_pct %g is not a finite non-negative value", req.AuditDriftPct)
	}
	spec.AuditFraction = req.AuditFraction
	spec.AuditSeed = req.AuditSeed
	spec.AuditDriftPct = req.AuditDriftPct

	// Subject-specific fields.
	if req.Workload != "" {
		switch {
		case req.MicroOps < 0:
			return nil, fmt.Errorf("serve: negative micro_ops %d", req.MicroOps)
		case req.MicroOps == 0:
			spec.MicroOps = lim.DefaultMicroOps
		case req.MicroOps > lim.MaxMicroOps:
			return nil, fmt.Errorf("serve: micro_ops %d exceeds the limit of %d", req.MicroOps, lim.MaxMicroOps)
		default:
			spec.MicroOps = req.MicroOps
		}
	} else {
		if req.MicroOps != 0 || req.Seed != 0 {
			return nil, fmt.Errorf("serve: micro_ops and seed only apply to named workloads")
		}
		if declen := base64.StdEncoding.DecodedLen(len(req.TraceB64)); declen > lim.MaxTraceBytes {
			return nil, fmt.Errorf("serve: trace upload of ~%d bytes exceeds the %d-byte limit", declen, lim.MaxTraceBytes)
		}
		raw, err := base64.StdEncoding.DecodeString(req.TraceB64)
		if err != nil {
			return nil, fmt.Errorf("serve: trace_b64: %w", err)
		}
		tr, err := trace.Read(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("serve: trace upload: %w", err)
		}
		if len(tr.Records) == 0 {
			return nil, fmt.Errorf("serve: trace upload has no records")
		}
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("serve: trace upload: %w", err)
		}
		spec.Trace = tr
		spec.TraceDigest = trace.Digest(tr)
	}
	return spec, nil
}
