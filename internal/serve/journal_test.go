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
// warning, the journal families on /metrics, and the SLO metric families.

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

// TestJournalSSELiveStream attaches the SSE client while the job is held
// before its work starts: the queued and running frames replay from the
// retained log and the rest of the lifecycle streams as it happens.
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

// getBody fetches url and returns its status code and body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, readAll(t, resp)
}

// compactJSON strips insignificant whitespace from a JSON document.
func compactJSON(t *testing.T, doc string) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, []byte(doc)); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, doc)
	}
	return b.String()
}

// TestJournalSurvivesServerRestart: a second service lifetime over the same
// store directory serves the first lifetime's flight record and replays its
// event log, without ever having seen the job — and a job submitted after
// the restart gets a fresh ID, leaving the first job's record and audit
// report in place.
func TestJournalSurvivesServerRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 2, SweepParallelism: 2, Store: st1, JournalProgressInterval: -1})
	ts1 := httptest.NewServer(s1)
	v, code := submitJob(t, ts1.URL, testBody(`,"audit_fraction":1,"audit_seed":11,"audit_drift_pct":100`))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if done := pollJob(t, ts1.URL, v.ID); done.Status != JobDone || done.AuditStatus != "ok" {
		t.Fatalf("first job status %s audit %q (error %q), want done/ok", done.Status, done.AuditStatus, done.Error)
	}
	first := getRecord(t, ts1.URL, v.ID)
	code, firstAudit := getBody(t, ts1.URL+"/debug/audit?job="+v.ID)
	if code != http.StatusOK {
		t.Fatalf("first lifetime /debug/audit status %d", code)
	}
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
	defer func() { _ = s2.Shutdown(context.Background()) }()
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

	// A job submitted after the restart must not take over the first job's
	// identity or its durable records.
	graph := strings.Replace(testBody(""), `"engine":"rpstacks"`, `"engine":"graph"`, 1)
	v2, code := submitJob(t, ts2.URL, graph)
	if code != http.StatusAccepted {
		t.Fatalf("post-restart submit status %d", code)
	}
	if v2.ID == v.ID {
		t.Errorf("post-restart job reused ID %s", v.ID)
	}
	pollJob(t, ts2.URL, v2.ID)
	if rec := getRecord(t, ts2.URL, v2.ID); rec.Engine != "graph" {
		t.Errorf("post-restart record engine %q, want graph", rec.Engine)
	}
	if rec := getRecord(t, ts2.URL, v.ID); rec.Engine != "rpstacks" || rec.TraceDigest != first.TraceDigest {
		t.Errorf("first job's record after a new submission: engine %q digest %s, want rpstacks %s",
			rec.Engine, rec.TraceDigest, first.TraceDigest)
	}
	// The live report serves indented, the persisted one as stored: compare
	// them compacted.
	code, lastAudit := getBody(t, ts2.URL+"/debug/audit?job="+v.ID)
	if code != http.StatusOK || compactJSON(t, lastAudit) != compactJSON(t, firstAudit) {
		t.Errorf("first job's audit report after a new submission: status %d\n%s\nwant 200\n%s", code, lastAudit, firstAudit)
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
	// /metrics carries the journal families only while the journal is on.
	for _, c := range []struct {
		url  string
		want bool
	}{{tsOn.URL, true}, {tsOff.URL, false}} {
		_, exp := getBody(t, c.url+"/metrics")
		if got := strings.Contains(exp, "rpstacks_journal_records "); got != c.want {
			t.Errorf("%s/metrics has journal families: %v, want %v", c.url, got, c.want)
		}
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

// TestSlowJobWarning: on an injected clock every job takes longer than its
// engine's objective, and the one structured warning carries the journal's
// per-stage breakdown and that objective as its threshold.
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
		SLOTargets:       map[string]time.Duration{"rpstacks": time.Millisecond},
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
	if n := strings.Count(out, "level=WARN"); n != 1 {
		t.Errorf("%d warnings logged for one slow job, want exactly 1:\n%s", n, out)
	}
}

// TestOperationalSurface: every number the removed GET /debug/status
// snapshot showed is a /metrics family or a /healthz field, the journal's
// own counters included, and the snapshot route is gone. Without a fleet
// there is no fleet family.
func TestOperationalSurface(t *testing.T) {
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
	// index to land before asserting on the exposition.
	var exp string
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, exp = getBody(t, ts.URL+"/metrics")
		if strings.Contains(exp, "rpstacks_journal_records_persisted 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal record never persisted:\n%s", exp)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// status and uptime_seconds live on /healthz.
	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v, want ok", health["status"])
	}
	if _, ok := health["uptime_seconds"].(float64); !ok {
		t.Errorf("healthz missing uptime_seconds: %v", health)
	}

	// Each remaining snapshot field, as the sample that now carries it and
	// the value this one job leaves behind (-1: present, any value).
	for _, want := range []struct {
		sample string
		value  float64
	}{
		{"rpstacks_queue_depth", 0},
		{"rpstacks_queue_capacity", 64},
		// runJob leaves the inflight gauge after persisting the record, so
		// the gauge may still read 1 here.
		{"rpstacks_jobs_inflight", -1},
		{"rpstacks_jobs_submitted_total", 1},
		{"rpstacks_jobs_rejected_total", 0},
		{"rpstacks_audit_drift_total", 0},
		// Cache hit rates are PromQL over these three counters.
		{`rpstacks_cache_hits_total{cache="artifacts"}`, 0},
		{`rpstacks_cache_misses_total{cache="artifacts"}`, 1},
		{`rpstacks_cache_disk_hits_total{cache="artifacts"}`, 0},
		{`rpstacks_cache_hits_total{cache="workloads"}`, -1},
		{`rpstacks_cache_misses_total{cache="workloads"}`, -1},
		{`rpstacks_cache_disk_hits_total{cache="workloads"}`, -1},
		{"rpstacks_store_bytes", -1},
		{"rpstacks_journal_records", 1},
		{"rpstacks_journal_records_persisted", 1},
		{"rpstacks_journal_subscribers", 0},
		{"rpstacks_journal_events_dropped_total", 0},
		{"rpstacks_journal_persist_errors_total", 0},
		{`rpstacks_slo_target_info{class="rpstacks",threshold_ms="3600000"}`, 1},
		{`rpstacks_slo_good_total{class="rpstacks"}`, 1},
		{`rpstacks_slo_events_total{class="rpstacks"}`, 1},
	} {
		got := metricValue(t, exp, want.sample)
		if want.value >= 0 && got != want.value {
			t.Errorf("%s = %g, want %g", want.sample, got, want.value)
		}
	}
	if n := metricValue(t, exp, "rpstacks_store_entries"); n < 1 {
		t.Errorf("rpstacks_store_entries = %g, want >= 1", n)
	}
	if strings.Contains(exp, "rpstacks_fleet_") {
		t.Error("fleet families exported without a fleet store")
	}

	if code, body := getBody(t, ts.URL+"/debug/status"); code != http.StatusNotFound {
		t.Errorf("GET /debug/status = %d, want 404:\n%s", code, body)
	}
}

// TestSLOAndUptimeExposition: the SLO families and the process-start gauge
// land on /metrics after a served job, and /healthz reports uptime.
func TestSLOAndUptimeExposition(t *testing.T) {
	s := New(Config{
		Workers:          2,
		SweepParallelism: 2,
		SLOTargets:       map[string]time.Duration{"rpstacks": time.Hour, "graph": 500 * time.Millisecond},
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
		`rpstacks_slo_target_info{class="graph",threshold_ms="500"} 1`,
		`rpstacks_slo_target_info{class="rpstacks",threshold_ms="3600000"} 1`,
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
	// With a journal and a fleet, /metrics carries both sets of families.
	// The sweep is over, so no sweep or lease is active any more.
	_, exp := getBody(t, ts.URL+"/metrics")
	for _, sample := range []string{
		"rpstacks_journal_records",
		"rpstacks_journal_records_persisted",
		"rpstacks_journal_subscribers",
		"rpstacks_journal_events_dropped_total",
		"rpstacks_journal_persist_errors_total",
	} {
		metricValue(t, exp, sample)
	}
	if n := metricValue(t, exp, "rpstacks_fleet_leases_active"); n != 0 {
		t.Errorf("rpstacks_fleet_leases_active = %g after the sweep, want 0", n)
	}
	if n := metricValue(t, exp, "rpstacks_fleet_sweeps_active"); n != 0 {
		t.Errorf("rpstacks_fleet_sweeps_active = %g after the sweep, want 0", n)
	}
	live := metricValue(t, exp, "rpstacks_fleet_workers_live")
	if live < 1 || metricSum(exp, "rpstacks_fleet_worker_live") != live {
		t.Errorf("rpstacks_fleet_workers_live = %g, want >= 1 and one worker_live row per live worker:\n%s", live, exp)
	}
}
