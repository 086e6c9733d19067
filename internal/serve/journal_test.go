package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/journal"
	"repro/internal/store"
)

// journal_test.go — the serve-layer acceptance tests for the job journal:
// flight records over HTTP, the SSE lifecycle stream (live, resumed, and
// replayed after a restart), the journal-on/off differential, the slow-job
// warning, /debug/status, and the SLO metric families.

// sseFrame is one parsed Server-Sent Event.
type sseFrame struct {
	id    uint64
	event string
	data  journal.Event
}

// readFrame parses the next SSE frame off the stream; ok is false at EOF.
func readFrame(t *testing.T, br *bufio.Reader) (sseFrame, bool) {
	t.Helper()
	var f sseFrame
	seen := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if seen {
				t.Fatalf("stream ended mid-frame: %v", err)
			}
			return f, false
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if seen {
				return f, true
			}
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			f.id = n
			seen = true
		case strings.HasPrefix(line, "event: "):
			f.event = strings.TrimPrefix(line, "event: ")
			seen = true
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f.data); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			seen = true
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
}

// streamSSE opens a job's event stream (resuming after lastEventID when
// non-empty) and reads it to completion.
func streamSSE(t *testing.T, base, id, lastEventID string) []sseFrame {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/debug/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var frames []sseFrame
	br := bufio.NewReader(resp.Body)
	for {
		f, ok := readFrame(t, br)
		if !ok {
			return frames
		}
		frames = append(frames, f)
	}
}

// checkLifecycle asserts the canonical frame grammar: queued first, running
// next, monotonically increasing ids, and a terminal done frame last.
func checkLifecycle(t *testing.T, frames []sseFrame, wantStatus string) {
	t.Helper()
	if len(frames) < 3 {
		t.Fatalf("stream of %d frames, want at least queued/running/done", len(frames))
	}
	if frames[0].event != "queued" || frames[1].event != "running" {
		t.Errorf("stream opens %s, %s, want queued, running", frames[0].event, frames[1].event)
	}
	for i := 1; i < len(frames); i++ {
		if frames[i].id <= frames[i-1].id {
			t.Errorf("frame %d id %d not after %d", i, frames[i].id, frames[i-1].id)
		}
	}
	last := frames[len(frames)-1]
	if last.event != "done" || last.data.Status != wantStatus {
		t.Errorf("terminal frame event=%s status=%s, want done/%s", last.event, last.data.Status, wantStatus)
	}
}

// getRecord fetches one flight record, waiting out the small window between
// the job's status flip and the journal's terminal write.
func getRecord(t *testing.T, base, id string) journal.Record {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/debug/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var rec journal.Record
		code := resp.StatusCode
		body := readAll(t, resp)
		if code == http.StatusOK {
			if err := json.Unmarshal([]byte(body), &rec); err != nil {
				t.Fatalf("record not JSON: %v\n%s", err, body)
			}
			if rec.Status != "queued" && rec.Status != "running" {
				return rec
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no finished record for %s (last status %d: %s)", id, code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJournalFlightRecord runs one job and audits its wide-event record and
// the list endpoint's filters.
func TestJournalFlightRecord(t *testing.T) {
	s := New(Config{Workers: 2, SweepParallelism: 2, JournalProgressInterval: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	v, code := submitJob(t, ts.URL, testBody(""))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if done := pollJob(t, ts.URL, v.ID); done.Status != JobDone {
		t.Fatalf("job status %s", done.Status)
	}

	rec := getRecord(t, ts.URL, v.ID)
	if rec.Status != "done" || rec.Engine != "rpstacks" || rec.Workload != testWorkload {
		t.Errorf("record identity %+v", rec)
	}
	if rec.GridPoints != 12 || rec.TraceDigest == "" || rec.SweepMS <= 0 {
		t.Errorf("record sweep summary: grid=%d digest=%q sweep_ms=%g", rec.GridPoints, rec.TraceDigest, rec.SweepMS)
	}
	if rec.Workers <= 0 {
		t.Errorf("record workers = %d, want positive", rec.Workers)
	}
	if rec.CacheBuilds == 0 {
		t.Error("cold-start job recorded no cache builds")
	}
	if rec.Finished.Before(rec.Started) || rec.Started.Before(rec.Submitted) {
		t.Errorf("timestamps out of order: %v / %v / %v", rec.Submitted, rec.Started, rec.Finished)
	}
	if len(rec.Events) == 0 || rec.Events[len(rec.Events)-1].Type != "done" {
		t.Fatalf("retained events do not end in done: %+v", rec.Events)
	}
	var lastProgress journal.Event
	for _, ev := range rec.Events {
		if ev.Type == "progress" {
			lastProgress = ev
		}
	}
	if lastProgress.Done != 12 || lastProgress.Total != 12 {
		t.Errorf("final progress event %+v, want 12/12", lastProgress)
	}

	// The list endpoint and its filters.
	list := func(query string) []journal.Record {
		resp, err := http.Get(ts.URL + "/debug/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list %q status %d", query, resp.StatusCode)
		}
		var out struct {
			Jobs []journal.Record `json:"jobs"`
		}
		if err := json.Unmarshal([]byte(readAll(t, resp)), &out); err != nil {
			t.Fatal(err)
		}
		return out.Jobs
	}
	if got := list(""); len(got) != 1 || got[0].JobID != v.ID || got[0].Events != nil {
		t.Errorf("list = %+v, want one event-free record for %s", got, v.ID)
	}
	if got := list("?status=done&engine=rpstacks"); len(got) != 1 {
		t.Errorf("matching filter returned %d records", len(got))
	}
	if got := list("?engine=graph"); len(got) != 0 {
		t.Errorf("engine filter returned %d records, want 0", len(got))
	}
	if got := list("?since=" + time.Now().Add(time.Hour).UTC().Format(time.RFC3339)); len(got) != 0 {
		t.Errorf("future since returned %d records, want 0", len(got))
	}
	for _, bad := range []string{"?since=yesterday", "?limit=0", "?limit=x"} {
		resp, err := http.Get(ts.URL + "/debug/jobs" + bad)
		if err != nil {
			t.Fatal(err)
		}
		if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("list %q status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/debug/jobs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown record status %d, want 404", resp.StatusCode)
	}
}

// TestJournalSSELiveStream attaches the SSE client while the job is still
// held in the queue, so the queued frame is delivered live and the rest of
// the lifecycle streams as it happens.
func TestJournalSSELiveStream(t *testing.T) {
	s := New(Config{Workers: 2, SweepParallelism: 2, JournalProgressInterval: -1})
	gate := make(chan struct{})
	s.beforeJob = func(*Job) { <-gate }
	ts := httptest.NewServer(s)
	defer ts.Close()

	v, code := submitJob(t, ts.URL, testBody(""))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}

	resp, err := http.Get(ts.URL + "/debug/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, ok := readFrame(t, br)
	if !ok || first.event != "queued" {
		t.Fatalf("first live frame %+v ok=%v, want queued", first, ok)
	}
	// The client is attached; let the job run and stream to completion.
	close(gate)
	frames := []sseFrame{first}
	for {
		f, ok := readFrame(t, br)
		if !ok {
			break
		}
		frames = append(frames, f)
	}
	checkLifecycle(t, frames, "done")
	var progress int
	for _, f := range frames {
		if f.event == "progress" {
			progress++
			if f.data.Total != 12 {
				t.Errorf("progress frame total %d, want 12", f.data.Total)
			}
		}
	}
	if progress == 0 {
		t.Error("live stream carried no progress frames")
	}
}

// TestJournalSSEResume replays a finished job's stream, then reconnects with
// Last-Event-ID and gets exactly the suffix.
func TestJournalSSEResume(t *testing.T) {
	s := New(Config{Workers: 2, SweepParallelism: 2, JournalProgressInterval: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	v, code := submitJob(t, ts.URL, testBody(""))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts.URL, v.ID)
	getRecord(t, ts.URL, v.ID)

	full := streamSSE(t, ts.URL, v.ID, "")
	checkLifecycle(t, full, "done")

	// Reconnect as a client that saw the first two frames.
	resume := streamSSE(t, ts.URL, v.ID, strconv.FormatUint(full[1].id, 10))
	if len(resume) != len(full)-2 {
		t.Fatalf("resume replayed %d frames, want %d", len(resume), len(full)-2)
	}
	for i, f := range resume {
		if f.id != full[i+2].id || f.event != full[i+2].event {
			t.Errorf("resume frame %d = (%d, %s), want (%d, %s)", i, f.id, f.event, full[i+2].id, full[i+2].event)
		}
	}
	// ?after= is the header's query-param twin, and it wins when both are
	// present.
	req, err := http.NewRequest("GET", ts.URL+"/debug/jobs/"+v.ID+"/events?after="+strconv.FormatUint(full[len(full)-1].id, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); strings.Contains(body, "data: ") {
		t.Errorf("replay after the terminal id delivered frames:\n%s", body)
	}

	// Malformed resume positions are rejected.
	req, _ = http.NewRequest("GET", ts.URL+"/debug/jobs/"+v.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad Last-Event-ID status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/debug/jobs/no-such-job/events")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job stream status %d, want 404", resp.StatusCode)
	}
}

// TestJournalSSEClientDisconnect: a client that walks away mid-stream
// detaches its subscription without disturbing the job.
func TestJournalSSEClientDisconnect(t *testing.T) {
	s := New(Config{Workers: 1, SweepParallelism: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A job the journal knows but no worker will ever finish: the stream
	// stays open until the client hangs up.
	s.journal.JobQueued("ghost", journal.Record{Engine: "rpstacks", GridPoints: 4})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/debug/jobs/ghost/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if f, ok := readFrame(t, br); !ok || f.event != "queued" {
		t.Fatalf("first frame %+v ok=%v, want queued", f, ok)
	}
	if subs := s.journal.Stats().Subscribers; subs != 1 {
		t.Fatalf("subscribers = %d with a client attached, want 1", subs)
	}
	cancel()
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.journal.Stats().Subscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription not detached after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJournalSurvivesServerRestart: a second service lifetime over the same
// store directory serves the first lifetime's flight record and replays its
// event log, without ever having seen the job.
func TestJournalSurvivesServerRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 2, SweepParallelism: 2, Store: st1, JournalProgressInterval: -1})
	ts1 := httptest.NewServer(s1)
	v, code := submitJob(t, ts1.URL, testBody(""))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts1.URL, v.ID)
	first := getRecord(t, ts1.URL, v.ID)
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 2, SweepParallelism: 2, Store: st2})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()

	second := getRecord(t, ts2.URL, v.ID)
	if second.Status != "done" || second.TraceDigest != first.TraceDigest || second.JobID != v.ID {
		t.Errorf("restarted record %+v, want the first lifetime's (%+v)", second, first)
	}
	if len(second.Events) != len(first.Events) {
		t.Errorf("restarted record retained %d events, want %d", len(second.Events), len(first.Events))
	}
	resp, err := http.Get(ts2.URL + "/debug/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); !strings.Contains(body, v.ID) {
		t.Errorf("restarted list omits %s:\n%s", v.ID, body)
	}
	frames := streamSSE(t, ts2.URL, v.ID, "")
	checkLifecycle(t, frames, "done")
	// Last-Event-ID resume works from the persisted log too.
	resume := streamSSE(t, ts2.URL, v.ID, strconv.FormatUint(frames[0].id, 10))
	if len(resume) != len(frames)-1 {
		t.Errorf("persisted resume replayed %d frames, want %d", len(resume), len(frames)-1)
	}
}

// TestJournalDifferential: the journal must be observationally inert — the
// same job's ranked sweep result is bit-identical with the journal on and
// off, and the disabled form 404s its endpoints.
func TestJournalDifferential(t *testing.T) {
	run := func(journalCap int) (*Server, *httptest.Server, *JobResult) {
		s := New(Config{Workers: 2, SweepParallelism: 2, JournalCapacity: journalCap})
		ts := httptest.NewServer(s)
		v, code := submitJob(t, ts.URL, testBody(""))
		if code != http.StatusAccepted {
			t.Fatalf("submit status %d", code)
		}
		done := pollJob(t, ts.URL, v.ID)
		if done.Status != JobDone {
			t.Fatalf("job status %s", done.Status)
		}
		return s, ts, done.Result
	}

	sOn, tsOn, on := run(0)
	defer tsOn.Close()
	sOff, tsOff, off := run(-1)
	defer tsOff.Close()

	if sOn.journal == nil {
		t.Fatal("default config left the journal disabled")
	}
	if sOff.journal != nil {
		t.Fatal("negative capacity did not disable the journal")
	}
	if got, want := pointsJSON(t, on), pointsJSON(t, off); got != want {
		t.Fatalf("journal changed the sweep result:\non:  %s\noff: %s", got, want)
	}
	for _, path := range []string{"/debug/jobs", "/debug/jobs/x", "/debug/jobs/x/events"} {
		resp, err := http.Get(tsOff.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
			t.Errorf("disabled journal: GET %s status %d, want 404", path, resp.StatusCode)
		}
	}
	// /debug/status stays up either way, just without a journal section.
	resp, err := http.Get(tsOff.URL + "/debug/status")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || strings.Contains(body, `"journal"`) {
		t.Errorf("disabled-journal status: %d\n%s", resp.StatusCode, body)
	}
}

// syncBuf is a goroutine-safe log sink.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSlowJobWarning: on an injected clock every job takes "too long", and
// the one structured warning carries the journal's per-stage breakdown.
func TestSlowJobWarning(t *testing.T) {
	var (
		mu  sync.Mutex
		now = time.Unix(50_000, 0)
	)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(100 * time.Millisecond)
		return now
	}
	var logs syncBuf
	s := New(Config{
		Workers:          2,
		SweepParallelism: 2,
		SlowJobThreshold: time.Millisecond,
		Clock:            clock,
		Logger:           slog.New(slog.NewTextHandler(&logs, nil)),
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	v, code := submitJob(t, ts.URL, testBody(""))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts.URL, v.ID)

	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(logs.String(), "slow job") {
		if time.Now().After(deadline) {
			t.Fatalf("no slow-job warning logged:\n%s", logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	out := logs.String()
	for _, want := range []string{
		`msg="slow job: wall-clock exceeded threshold"`,
		"job_id=" + v.ID,
		"engine=rpstacks",
		"trace_digest=",
		"queue_ms=",
		"setup_ms=",
		"sweep_ms=",
		"threshold=1ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-job warning missing %q:\n%s", want, out)
		}
	}
}

// TestDebugStatus: the aggregate snapshot reflects a served job in JSON and
// HTML, and rejects unknown formats.
func TestDebugStatus(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Workers:          2,
		SweepParallelism: 2,
		Store:            st,
		SLOTargets:       map[string]time.Duration{"rpstacks": time.Hour},
	})
	// Drain before the temp store is removed: job workers may still be
	// persisting into it when the assertions finish.
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	ts := httptest.NewServer(s)
	defer ts.Close()

	v, code := submitJob(t, ts.URL, testBody(""))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts.URL, v.ID)
	getRecord(t, ts.URL, v.ID)

	// The record's terminal write precedes its persistence; wait for the
	// index to land before asserting on the snapshot.
	var ds map[string]any
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/debug/status")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(readAll(t, resp)), &ds); err != nil {
			t.Fatalf("status not JSON: %v", err)
		}
		if jn, ok := ds["journal"].(map[string]any); ok {
			if n, _ := jn["Persisted"].(float64); n >= 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal record never persisted: %v", ds)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ds["status"] != "ok" {
		t.Errorf("status = %v, want ok", ds["status"])
	}
	if n, _ := ds["jobs_submitted_total"].(float64); n < 1 {
		t.Errorf("jobs_submitted_total = %v, want >= 1", ds["jobs_submitted_total"])
	}
	if _, ok := ds["cache_hit_rates"].(map[string]any)["artifacts"]; !ok {
		t.Errorf("cache_hit_rates missing artifacts: %v", ds["cache_hit_rates"])
	}
	if n, _ := ds["store_entries"].(float64); n < 1 {
		t.Errorf("store_entries = %v, want >= 1", ds["store_entries"])
	}
	jn, ok := ds["journal"].(map[string]any)
	if !ok {
		t.Fatalf("status has no journal section: %v", ds)
	}
	if n, _ := jn["Persisted"].(float64); n < 1 {
		t.Errorf("journal persisted = %v, want >= 1", jn["Persisted"])
	}
	burns, ok := ds["slo_burn_rates"].(map[string]any)
	if !ok {
		t.Fatalf("status has no slo_burn_rates: %v", ds)
	}
	if _, ok := burns["rpstacks"]; !ok {
		t.Errorf("slo_burn_rates missing rpstacks: %v", burns)
	}

	resp, err := http.Get(ts.URL + "/debug/status?format=html")
	if err != nil {
		t.Fatal(err)
	}
	html := readAll(t, resp)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("html format content type %q", ct)
	}
	for _, want := range []string{"<h1>rpserved: ok</h1>", "Journal", "SLO burn"} {
		if !strings.Contains(html, want) {
			t.Errorf("html status missing %q:\n%s", want, html)
		}
	}
	resp, err = http.Get(ts.URL + "/debug/status?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format status %d, want 400", resp.StatusCode)
	}
}

// TestSLOAndUptimeExposition: the SLO families and the process-start gauge
// land on /metrics after a served job, and /healthz reports uptime.
func TestSLOAndUptimeExposition(t *testing.T) {
	s := New(Config{
		Workers:          2,
		SweepParallelism: 2,
		SLOTargets:       map[string]time.Duration{"rpstacks": time.Hour, "graph": 500 * time.Millisecond},
		SLOObjective:     0.9,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	v, code := submitJob(t, ts.URL, testBody(""))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if done := pollJob(t, ts.URL, v.ID); done.Status != JobDone {
		t.Fatalf("job status %s", done.Status)
	}
	// The SLO observation lands just after the status flip; wait it out via
	// the journal's terminal write, which precedes it.
	getRecord(t, ts.URL, v.ID)

	deadline := time.Now().Add(5 * time.Second)
	var exp string
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		exp = readAll(t, resp)
		if strings.Contains(exp, `rpstacks_slo_events_total{class="rpstacks"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("SLO event never counted:\n%s", exp)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := metricValue(t, exp, `rpstacks_slo_good_total{class="rpstacks"}`); got != 1 {
		t.Errorf("good events = %g, want 1 (a done job under a 1h threshold)", got)
	}
	// The undeclared-traffic class still exposes its zero rows.
	if got := metricValue(t, exp, `rpstacks_slo_events_total{class="graph"}`); got != 0 {
		t.Errorf("graph events = %g, want 0", got)
	}
	for _, want := range []string{
		`rpstacks_slo_target_info{class="graph",threshold_ms="500",objective="0.9"} 1`,
		`rpstacks_slo_burn_rate{class="rpstacks",window="5m"} 0`,
		`rpstacks_slo_burn_rate{class="rpstacks",window="1h"} 0`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if got := metricValue(t, exp, "rpstacks_process_start_time_seconds"); got <= 0 {
		t.Errorf("process start gauge = %g, want a Unix timestamp", got)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.Unmarshal([]byte(readAll(t, resp)), &health); err != nil {
		t.Fatal(err)
	}
	if _, ok := health["uptime_seconds"].(float64); !ok {
		t.Errorf("healthz missing uptime_seconds: %v", health)
	}
}

// TestJournalSSEFleetJob: a fleet-delegated sweep streams too — chunk
// completions from worker self-reports become progress frames, lease grants
// become fleet frames, and the flight record counts the fleet's churn.
func TestJournalSSEFleetJob(t *testing.T) {
	shared, err := store.OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Workers:                 2,
		QueueDepth:              8,
		SweepParallelism:        2,
		FleetStore:              shared,
		FleetLeaseTTL:           time.Minute,
		FleetChunkSize:          3, // 12-point grid -> 4 chunks
		JournalProgressInterval: -1,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	startServeWorkers(t, ts.URL, shared, 2)

	v, code := submitJob(t, ts.URL, testBody(""))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if done := pollJob(t, ts.URL, v.ID); done.Status != JobDone {
		t.Fatalf("status %s", done.Status)
	}

	rec := getRecord(t, ts.URL, v.ID)
	if rec.FleetChunks != 4 {
		t.Errorf("fleet chunks = %d, want 4", rec.FleetChunks)
	}
	if rec.FleetWorkers < 1 {
		t.Errorf("fleet workers = %d, want >= 1", rec.FleetWorkers)
	}

	frames := streamSSE(t, ts.URL, v.ID, "")
	checkLifecycle(t, frames, "done")
	var leases int
	var lastProgress journal.Event
	for _, f := range frames {
		switch f.event {
		case "fleet":
			if f.data.Chunk == nil || f.data.Worker == "" {
				t.Errorf("fleet frame without chunk/worker: %+v", f.data)
			}
			if f.data.Fleet == "lease" || f.data.Fleet == "steal" {
				leases++
			}
		case "progress":
			lastProgress = f.data
		}
	}
	// Every chunk is granted at least once; re-grants (steals, or a lease
	// beaten to publication) can add frames under load, so a lower bound.
	if leases < 4 {
		t.Errorf("lease frames = %d, want >= 4 grants", leases)
	}
	if lastProgress.Done != 12 || lastProgress.Total != 12 {
		t.Errorf("final fleet progress %+v, want 12/12", lastProgress)
	}
	// The snapshot sees the fleet too.
	resp, err := http.Get(ts.URL + "/debug/status")
	if err != nil {
		t.Fatal(err)
	}
	var ds map[string]any
	if err := json.Unmarshal([]byte(readAll(t, resp)), &ds); err != nil {
		t.Fatal(err)
	}
	if _, ok := ds["fleet"].(map[string]any); !ok {
		t.Errorf("status has no fleet section: %v", ds)
	}
}
