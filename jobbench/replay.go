package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/dse"
	"repro/internal/serve"
	"repro/internal/stacks"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The replay calls each layer's public functions directly, on the same
// inputs the server's jobs used, and records one span per call. Its sweep
// reports are also the expected results every job is checked against.

// span is one recorded layer call.
type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent"` // the input or job the call served
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Work    float64 `json:"work,omitempty"` // what the call processed: µops, points, bytes, probes
}

// recorder keeps the spans in memory until the run ends.
type recorder struct {
	t0      time.Time
	spans   []span
	allocMB []float64 // core.Analyze allocation per call
	stacks  int       // representative stacks of every analysis
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(name, parent string, start time.Time, work float64) time.Duration {
	d := time.Since(start)
	r.spans = append(r.spans, span{
		Name:    name,
		Parent:  parent,
		StartUS: float64(start.Sub(r.t0).Nanoseconds()) / 1e3,
		DurUS:   float64(d.Nanoseconds()) / 1e3,
		Work:    work,
	})
	return d
}

// durs returns the durations in ms of every span called name, optionally
// only those serving parent.
func (r *recorder) durs(name, parent string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && (parent == "" || s.Parent == parent) {
			out = append(out, s.DurUS/1e3)
		}
	}
	return out
}

// rate returns the summed work of the spans called name per second.
func (r *recorder) rate(name string) float64 {
	var work, us float64
	for _, s := range r.spans {
		if s.Name == name {
			work += s.Work
			us += s.DurUS
		}
	}
	if us == 0 {
		return 0
	}
	return work / (us / 1e6)
}

// sumWork sums the work of the spans called name.
func (r *recorder) sumWork(name string) float64 {
	var w float64
	for _, s := range r.spans {
		if s.Name == name {
			w += s.Work
		}
	}
	return w
}

// write stores the spans as JSON.
func (r *recorder) write(path string) error {
	raw, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// baseline is the machine every server in the benchmark explores.
var baseline = config.Baseline()

// simulate regenerates the input's µop stream and simulates its measured
// region with the server's recipe: 3x functional warmup snapped forward to
// a macro-op boundary, cache warming, then the traced run. The returned
// oracle replays the same recipe at other latencies. rec may be nil.
func simulate(in input, rec *recorder) (*trace.Trace, *audit.SimOracle, error) {
	prof, ok := workload.ByName(in.App)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", in.App)
	}
	if rec == nil {
		rec = newRecorder()
	}
	start := time.Now()
	gen := workload.NewGenerator(prof, in.Seed)
	warm := 3 * in.MicroOps
	stream := gen.Take(warm + in.MicroOps)
	cut := warm
	for cut < len(stream) && !stream[cut].SoM {
		cut++
	}
	rec.add("workload.gen", in.String(), start, float64(len(stream)))

	sim, err := cpu.New(baseline)
	if err != nil {
		return nil, nil, err
	}
	start = time.Now()
	sim.WarmCode(gen.CodeLines())
	sim.WarmData(gen.DataLines())
	sim.WarmUp(stream[:cut])
	tr, err := sim.Run(stream[cut:])
	if err != nil {
		return nil, nil, fmt.Errorf("simulating %s: %w", in, err)
	}
	rec.add("cpu.sim", in.String(), start, float64(len(stream)))
	oracle := &audit.SimOracle{
		Cfg:       baseline,
		CodeLines: gen.CodeLines(),
		DataLines: gen.DataLines(),
		Warm:      stream[:cut],
		UOps:      stream[cut:],
	}
	return tr, oracle, nil
}

// encodeTrace is the canonical trace encoding an upload carries.
func encodeTrace(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// prepared is one input taken through every setup layer.
type prepared struct {
	in       input
	tr       *trace.Trace
	digest   string
	oracle   *audit.SimOracle
	analysis *core.Analysis
	graph    *depgraph.Graph
}

// prepare runs one input through the layers a cold job pays for —
// generate, simulate, digest, trace and analysis codecs, store put/get,
// analysis and graph build — recording each call. st is the replay's own
// store.
func prepare(in input, rec *recorder, st *store.Store) (*prepared, error) {
	p := &prepared{in: in}
	var err error
	if p.tr, p.oracle, err = simulate(in, rec); err != nil {
		return nil, err
	}
	key := in.String()

	start := time.Now()
	p.digest = trace.Digest(p.tr)
	rec.add("trace.digest", key, start, float64(len(p.tr.Records)))

	start = time.Now()
	raw, err := encodeTrace(p.tr)
	if err != nil {
		return nil, err
	}
	rec.add("trace.encode", key, start, float64(len(raw)))
	start = time.Now()
	back, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	rec.add("trace.decode", key, start, float64(len(raw)))
	if trace.Digest(back) != p.digest {
		return nil, fmt.Errorf("%s: trace changed across its codec", in)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	start = time.Now()
	p.analysis, err = core.Analyze(p.tr, &baseline.Structure, &baseline.Lat, core.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("analysing %s: %w", in, err)
	}
	rec.add("core.analyze", key, start, float64(len(p.tr.Records)))
	runtime.ReadMemStats(&ms)
	rec.allocMB = append(rec.allocMB, float64(ms.TotalAlloc-before)/(1<<20))
	rec.stacks += p.analysis.NumStacks()

	var abuf bytes.Buffer
	start = time.Now()
	if err := core.WriteAnalysis(&abuf, p.analysis); err != nil {
		return nil, err
	}
	rec.add("core.codec_encode", key, start, float64(abuf.Len()))
	start = time.Now()
	if _, err := core.ReadAnalysis(bytes.NewReader(abuf.Bytes())); err != nil {
		return nil, err
	}
	rec.add("core.codec_decode", key, start, float64(abuf.Len()))

	for _, blob := range []struct {
		key     string
		payload []byte
	}{{"trace|" + key, raw}, {"analysis|" + key, abuf.Bytes()}} {
		start = time.Now()
		if err := st.Put(blob.key, blob.payload, 0); err != nil {
			return nil, err
		}
		rec.add("store.put", key, start, float64(len(blob.payload)))
		start = time.Now()
		got, _, ok := st.Get(blob.key)
		if !ok || !bytes.Equal(got, blob.payload) {
			return nil, fmt.Errorf("%s: store lost %s", in, blob.key)
		}
		rec.add("store.get", key, start, float64(len(got)))
	}

	start = time.Now()
	p.graph, err = depgraph.Build(p.tr, &baseline.Structure, 0, len(p.tr.Records))
	if err != nil {
		return nil, err
	}
	rec.add("depgraph.build", key, start, float64(p.graph.NumNodes()))
	return p, nil
}

// expected is what a correct server returns for one job.
type expected struct {
	digest     string
	microOps   int
	gridPoints int
	points     []serve.PointResult
	audit      *audit.Report
}

// sweepWorkers is the server's default per-job sweep parallelism; results
// do not depend on it.
func sweepWorkers() int { return runtime.GOMAXPROCS(0) }

// expect computes the job's result by calling the engines directly, and
// records the sweep, search and audit calls under the job's key.
func expect(ctx context.Context, p *prepared, key string, body []byte, rec *recorder) (*expected, error) {
	spec, err := serve.ParseJobRequest(body, serve.DefaultLimits())
	if err != nil {
		return nil, err
	}
	want := &expected{digest: p.digest, microOps: len(p.tr.Records)}
	par := sweepWorkers()
	if spec.Search != nil {
		opts := dse.SearchOptions{
			ExploreOptions: dse.ExploreOptions{Parallelism: par, Context: ctx},
			MicroOps:       len(p.tr.Records),
		}
		if spec.Workload != "" {
			opts.Verify = func(l stacks.Latencies) (float64, error) {
				c, _, err := p.oracle.Truth(ctx, l)
				return c, err
			}
		} else {
			oracle := &audit.GraphOracle{Graph: p.graph}
			opts.Verify = func(l stacks.Latencies) (float64, error) {
				c, _, err := oracle.Truth(ctx, l)
				return c, err
			}
		}
		start := time.Now()
		var res *dse.SearchResult
		switch spec.Engine {
		case "rpstacks":
			res, err = dse.SearchRpStacks(p.analysis, baseline.Lat, &spec.Space, spec.Search, opts)
		case "graph":
			res, err = dse.SearchGraph(p.graph, baseline.Lat, &spec.Space, spec.Search, opts)
		default:
			err = fmt.Errorf("unsupported engine %q", spec.Engine)
		}
		if err != nil {
			return nil, err
		}
		rec.add("dse.search", key, start, float64(res.Probes))
		want.gridPoints = int(res.GridPoints)
		want.points = searchPoints(spec, p.tr, res)
		return want, nil
	}

	points := spec.Space.Enumerate(baseline.Lat)
	rep, err := sweep(ctx, p, spec.Engine, points, spec.AuditFraction > 0, key, rec)
	if err != nil {
		return nil, err
	}
	want.gridPoints = len(rep.Results)
	want.points = rankPoints(spec, p.tr, rep)
	if spec.AuditFraction > 0 {
		var decompose func(*stacks.Latencies) stacks.Stack
		if spec.Engine == "rpstacks" {
			decompose = audit.RpStacksDecompose(p.analysis)
		} else {
			decompose = audit.GraphDecompose(p.graph)
		}
		start := time.Now()
		want.audit, err = audit.Run(rep, p.oracle, decompose, audit.Options{
			Fraction:    spec.AuditFraction,
			Seed:        spec.AuditSeed,
			MaxPoints:   serve.DefaultLimits().MaxAuditPoints,
			Parallelism: par,
			DriftPct:    spec.AuditDriftPct,
			Context:     ctx,
		})
		if err != nil {
			return nil, err
		}
		rec.add("audit.run", key, start, float64(want.audit.Audited))
	}
	return want, nil
}

// sweep evaluates points through the engine, recorded as core.predict or
// depgraph.eval.
func sweep(ctx context.Context, p *prepared, engine string, points []stacks.Latencies,
	fingerprint bool, key string, rec *recorder) (*dse.Report, error) {
	opts := dse.ExploreOptions{Parallelism: sweepWorkers(), Context: ctx, NeedFingerprint: fingerprint}
	start := time.Now()
	switch engine {
	case "rpstacks":
		rep, err := dse.ExploreRpStacksOpts(p.analysis, points, opts)
		if err == nil {
			rec.add("core.predict", key, start, float64(len(points)))
		}
		return rep, err
	case "graph":
		rep, err := dse.ExploreGraphOpts(p.graph, points, opts)
		if err == nil {
			rec.add("depgraph.eval", key, start, float64(len(points)))
		}
		return rep, err
	}
	return nil, fmt.Errorf("unsupported engine %q", engine)
}

// rankPoints orders a sweep's results as the service promises: ascending
// cycles, point index breaking ties, the top spec.Top kept.
func rankPoints(spec *serve.JobSpec, tr *trace.Trace, rep *dse.Report) []serve.PointResult {
	idx := make([]int, len(rep.Results))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return rep.Results[idx[a]].Cycles < rep.Results[idx[b]].Cycles
	})
	if len(idx) > spec.Top {
		idx = idx[:spec.Top]
	}
	out := make([]serve.PointResult, len(idx))
	for k, i := range idx {
		r := rep.Results[i]
		out[k] = serve.PointResult{Latencies: axisLatencies(spec, r.Lat), Cycles: r.Cycles, CPI: r.Cycles / float64(len(tr.Records))}
	}
	return out
}

// searchPoints renders a search as the service promises: the optimum,
// then the frontier.
func searchPoints(spec *serve.JobSpec, tr *trace.Trace, res *dse.SearchResult) []serve.PointResult {
	var sps []dse.SearchPoint
	if res.Best != nil {
		sps = append(sps, *res.Best)
	}
	sps = append(sps, res.Frontier...)
	out := make([]serve.PointResult, len(sps))
	for k, p := range sps {
		out[k] = serve.PointResult{
			Latencies:    axisLatencies(spec, p.Lat),
			Cycles:       p.Cycles,
			CPI:          p.Cycles / float64(len(tr.Records)),
			Cost:         p.Cost,
			VerifyErrPct: p.VerifyErrPct,
		}
	}
	return out
}

func axisLatencies(spec *serve.JobSpec, l stacks.Latencies) map[string]float64 {
	m := make(map[string]float64, len(spec.Space.Axes))
	for _, ax := range spec.Space.Axes {
		m[ax.Event.String()] = l[ax.Event]
	}
	return m
}

// check compares one job as the client saw it with the replay's result.
// Every value must be equal: the engines are deterministic, and JSON
// carries float64 exactly.
func check(o outcome, want *expected) error {
	if o.Err != nil {
		return o.Err
	}
	if o.View.Status != string(serve.JobDone) {
		return fmt.Errorf("job %s ended %s: %s", o.View.ID, o.View.Status, o.View.Error)
	}
	r := o.View.Result
	switch {
	case r == nil:
		return fmt.Errorf("job %s: done without a result", o.View.ID)
	case r.TraceDigest != want.digest:
		return fmt.Errorf("job %s: trace digest %s, want %s", o.View.ID, r.TraceDigest, want.digest)
	case r.MicroOps != want.microOps || r.GridPoints != want.gridPoints:
		return fmt.Errorf("job %s: %d µops over %d points, want %d over %d",
			o.View.ID, r.MicroOps, r.GridPoints, want.microOps, want.gridPoints)
	case len(r.Points) != len(want.points):
		return fmt.Errorf("job %s: %d ranked points, want %d", o.View.ID, len(r.Points), len(want.points))
	}
	for k, got := range r.Points {
		w := want.points[k]
		same := got.Cycles == w.Cycles && got.CPI == w.CPI && got.Cost == w.Cost &&
			got.VerifyErrPct == w.VerifyErrPct && len(got.Latencies) == len(w.Latencies)
		for ev, v := range w.Latencies {
			same = same && got.Latencies[ev] == v
		}
		if !same {
			return fmt.Errorf("job %s: point %d is %+v, want %+v", o.View.ID, k, got, w)
		}
	}
	if (o.Audit == nil) != (want.audit == nil) {
		return fmt.Errorf("job %s: audit report present %v, want %v", o.View.ID, o.Audit != nil, want.audit != nil)
	}
	if want.audit != nil && (o.Audit.Audited != want.audit.Audited ||
		o.Audit.MaxErrorPct != want.audit.MaxErrorPct || o.Audit.Status != want.audit.Status) {
		return fmt.Errorf("job %s: audit %d points, max error %g%% (%s), want %d, %g%% (%s)", o.View.ID,
			o.Audit.Audited, o.Audit.MaxErrorPct, o.Audit.Status,
			want.audit.Audited, want.audit.MaxErrorPct, want.audit.Status)
	}
	return nil
}
