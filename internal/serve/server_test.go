package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dse"
	"repro/internal/workload"
)

// The acceptance workload: small enough to simulate in well under a second,
// structured enough that design points actually differ.
const (
	testWorkload = "429.mcf"
	testMicroOps = 4000
)

var testAxes = []string{"L2D=8,12,16,20", "MemD=150,200,280"} // 12-point grid

func testBody(extra string) string {
	return fmt.Sprintf(`{"workload":%q,"axes":["L2D=8,12,16,20","MemD=150,200,280"],`+
		`"engine":"rpstacks","top":12,"micro_ops":%d,"timeout_ms":120000%s}`,
		testWorkload, testMicroOps, extra)
}

// submitJob POSTs a job body and returns the decoded view plus the status
// code.
func submitJob(t *testing.T, base, body string) (jobView, int) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return v, resp.StatusCode
}

// pollJob polls GET /jobs/{id} until the job reaches a terminal status.
func pollJob(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding job view: %v", err)
		}
		switch v.Status {
		case JobDone, JobFailed, JobTimeout, JobCanceled:
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return jobView{}
}

// referencePoints replicates the server's setup pipeline directly — same
// warmup, same simulation, same analysis — then sweeps and ranks the grid
// independently of the server code, producing the point list every job
// response must match exactly.
func referencePoints(t *testing.T) []PointResult {
	t.Helper()
	cfg := config.Baseline()
	prof, ok := workload.ByName(testWorkload)
	if !ok {
		t.Fatalf("unknown workload %s", testWorkload)
	}
	gen := workload.NewGenerator(prof, 0)
	warm := 3 * testMicroOps
	stream := gen.Take(warm + testMicroOps)
	cut := warm
	for cut < len(stream) && !stream[cut].SoM {
		cut++
	}
	sim, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.WarmCode(gen.CodeLines())
	sim.WarmData(gen.DataLines())
	sim.WarmUp(stream[:cut])
	tr, err := sim.Run(stream[cut:])
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(tr, &cfg.Structure, &cfg.Lat, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var space dse.Space
	for _, raw := range testAxes {
		ax, err := dse.ParseAxisSpec(raw)
		if err != nil {
			t.Fatal(err)
		}
		space.Axes = append(space.Axes, ax)
	}
	rep, _ := dse.Explore(dse.RpStacksEngine(a), space.Enumerate(cfg.Lat), dse.ExploreOptions{})

	// Independent ranking: ascending cycles, point index breaking ties.
	idx := make([]int, len(rep.Results))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if rep.Results[a].Cycles != rep.Results[b].Cycles {
			return rep.Results[a].Cycles < rep.Results[b].Cycles
		}
		return a < b
	})
	uops := float64(len(tr.Records))
	pts := make([]PointResult, len(idx))
	for k, i := range idx {
		lat := map[string]float64{}
		for _, ax := range space.Axes {
			lat[ax.Event.String()] = rep.Results[i].Lat[ax.Event]
		}
		pts[k] = PointResult{Latencies: lat, Cycles: rep.Results[i].Cycles, CPI: rep.Results[i].Cycles / uops}
	}
	return pts
}

// metricValue extracts one sample from a Prometheus text exposition.
func metricValue(t *testing.T, exposition, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parsing %s value %q: %v", sample, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric sample %s not found in exposition", sample)
	return 0
}

// TestServerAcceptance is the subsystem's integration test: eight concurrent
// jobs over the same workload against an httptest server, every result
// matching a direct dse sweep point-for-point, the setup cost paid exactly
// once (one cache miss, the rest hits, visible in /metrics), and shutdown
// draining cleanly.
func TestServerAcceptance(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 32, SweepParallelism: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const jobs = 8
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, code := submitJob(t, ts.URL, testBody(""))
			if code != http.StatusAccepted {
				t.Errorf("job %d: submit status %d, want 202", i, code)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	want := referencePoints(t)
	for i, id := range ids {
		v := pollJob(t, ts.URL, id)
		if v.Status != JobDone {
			t.Fatalf("job %d (%s): status %s (error %q), want done", i, id, v.Status, v.Error)
		}
		if v.Result == nil {
			t.Fatalf("job %d: done without a result", i)
		}
		if v.Result.GridPoints != len(want) {
			t.Fatalf("job %d: swept %d points, want %d", i, v.Result.GridPoints, len(want))
		}
		if len(v.Result.Points) != len(want) {
			t.Fatalf("job %d: returned %d points, want %d", i, len(v.Result.Points), len(want))
		}
		for k, got := range v.Result.Points {
			if got.Cycles != want[k].Cycles {
				t.Fatalf("job %d point %d: cycles %g, want %g", i, k, got.Cycles, want[k].Cycles)
			}
			for ev, lat := range want[k].Latencies {
				if got.Latencies[ev] != lat {
					t.Fatalf("job %d point %d: %s latency %g, want %g", i, k, ev, got.Latencies[ev], lat)
				}
			}
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exp := readAll(t, resp)
	for _, cacheName := range []string{"workloads", "artifacts"} {
		misses := metricValue(t, exp, fmt.Sprintf("rpstacks_cache_misses_total{cache=%q}", cacheName))
		hits := metricValue(t, exp, fmt.Sprintf("rpstacks_cache_hits_total{cache=%q}", cacheName))
		if misses != 1 {
			t.Errorf("%s cache misses = %g, want exactly 1 (setup paid once)", cacheName, misses)
		}
		if hits != jobs-1 {
			t.Errorf("%s cache hits = %g, want %d", cacheName, hits, jobs-1)
		}
	}
	if v := metricValue(t, exp, "rpstacks_jobs_submitted_total"); v != jobs {
		t.Errorf("jobs submitted = %g, want %d", v, jobs)
	}
	if v := metricValue(t, exp, `rpstacks_jobs_total{status="done"}`); v != jobs {
		t.Errorf("jobs done = %g, want %d", v, jobs)
	}
	if v := metricValue(t, exp, `rpstacks_sweep_duration_seconds_count{engine="rpstacks"}`); v != jobs {
		t.Errorf("rpstacks sweeps observed = %g, want %d", v, jobs)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJobTimeoutDoesNotWedgeWorker submits a job whose deadline is far below
// its setup cost: it must come back with the timeout status, and the same
// worker must then complete a follow-up job normally.
func TestJobTimeoutDoesNotWedgeWorker(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	tight := fmt.Sprintf(`{"workload":%q,"axes":["L2D=8,12,16,20","MemD=150,200,280"],`+
		`"engine":"rpstacks","micro_ops":%d,"seed":7,"timeout_ms":1}`, testWorkload, testMicroOps)
	v, code := submitJob(t, ts.URL, tight)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	if got := pollJob(t, ts.URL, v.ID); got.Status != JobTimeout {
		t.Fatalf("status %s (error %q), want timeout", got.Status, got.Error)
	}

	// The worker survives: the next job (same workload, so it reuses the
	// setup the timed-out job's cache build completed) finishes normally.
	v2, code := submitJob(t, ts.URL, testBody(`,"seed":7`))
	if code != http.StatusAccepted {
		t.Fatalf("second submit status %d, want 202", code)
	}
	if got := pollJob(t, ts.URL, v2.ID); got.Status != JobDone {
		t.Fatalf("follow-up status %s (error %q), want done", got.Status, got.Error)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestQueueShedsLoad fills the single worker and the depth-1 queue
// deterministically via the beforeJob hook, then requires the next submit to
// be shed with 429 and a Retry-After header.
func TestQueueShedsLoad(t *testing.T) {
	entered := make(chan string, 4)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.beforeJob = func(j *Job) {
		entered <- j.ID
		<-release
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	if _, code := submitJob(t, ts.URL, testBody("")); code != http.StatusAccepted {
		t.Fatalf("job 1: status %d, want 202", code)
	}
	<-entered // the worker is now held mid-job; the queue is empty
	if _, code := submitJob(t, ts.URL, testBody("")); code != http.StatusAccepted {
		t.Fatalf("job 2: status %d, want 202", code)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(testBody("")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}

	close(release)
	<-entered // second job starts once the first finishes
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShutdownDrains submits a burst of jobs and immediately shuts down:
// Shutdown must wait for every accepted job to finish (none lost, none
// abandoned) and later submissions must be refused with 503.
func TestShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const jobs = 4
	ids := make([]string, jobs)
	for i := range ids {
		v, code := submitJob(t, ts.URL, testBody(""))
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d, want 202", i, code)
		}
		ids[i] = v.ID
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i, id := range ids {
		job, ok := s.lookup(id)
		if !ok {
			t.Fatalf("job %d evicted during drain", i)
		}
		if st := job.Status(); st != JobDone {
			t.Fatalf("job %d: status %s after drain, want done", i, st)
		}
	}
	if _, code := submitJob(t, ts.URL, testBody("")); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: status %d, want 503", code)
	}
}

// TestForcedShutdownCancels expires the Shutdown deadline while a job runs:
// Shutdown must still return (with the context error) and the abandoned job
// must finish as canceled rather than hang.
func TestForcedShutdownCancels(t *testing.T) {
	started := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 2})
	var once sync.Once
	s.beforeJob = func(*Job) { once.Do(func() { close(started) }) }
	ts := httptest.NewServer(s)
	defer ts.Close()

	v, code := submitJob(t, ts.URL, testBody(""))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("forced shutdown returned %v, want context.Canceled", err)
	}
	job, ok := s.lookup(v.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if st := job.Status(); st != JobCanceled {
		t.Fatalf("status %s after forced shutdown, want canceled", st)
	}
}

// TestSubmitRejectsInvalid checks the 400 path and its metric.
func TestSubmitRejectsInvalid(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, body := range []string{
		"{not json",
		`{"workload":"429.mcf"}`,                        // no axes
		`{"workload":"nope","axes":["L2D=8"]}`,          // unknown workload
		`{"workload":"429.mcf","axes":["L2D=8"],"x":1}`, // unknown field
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exp := readAll(t, resp)
	if v := metricValue(t, exp, "rpstacks_requests_invalid_total"); v != 4 {
		t.Errorf("invalid requests = %g, want 4", v)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestEngineNamesResolve drives every engine name through the service: each
// name the resolver knows runs to completion and reports itself, and an
// unknown name is a 400 at submit time, before any setup is paid.
func TestEngineNamesResolve(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, engine := range dse.EngineNames {
		body := strings.Replace(testBody(""), `"engine":"rpstacks"`, fmt.Sprintf("%q:%q", "engine", engine), 1)
		body = strings.Replace(body, `"L2D=8,12,16,20","MemD=150,200,280"`, `"L2D=8,12"`, 1)
		v, code := submitJob(t, ts.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("engine %s: submit status %d, want 202", engine, code)
		}
		got := pollJob(t, ts.URL, v.ID)
		if got.Status != JobDone || got.Result == nil || got.Result.Engine != engine {
			t.Fatalf("engine %s: job %s (error %q)", engine, got.Status, got.Error)
		}
	}
	for _, engine := range []string{"oracle", "simulator", "Graph"} {
		body := strings.Replace(testBody(""), `"engine":"rpstacks"`, fmt.Sprintf("%q:%q", "engine", engine), 1)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unknown engine") {
			t.Errorf("engine %q: status %d body %s, want 400 unknown engine", engine, resp.StatusCode, msg)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
