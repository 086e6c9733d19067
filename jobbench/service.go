package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/obs/journal"
	"repro/internal/serve"
	"repro/internal/store"
)

// serverOpts is how one in-process service is started. Everything else is
// cmd/rpserved's default flags.
type serverOpts struct {
	storeDir string // durable store directory; empty runs memory-only
	obsOff   bool   // per-job tracing and the journal off
}

// server is one serve.Server behind a loopback HTTP listener.
type server struct {
	svc    *serve.Server
	hs     *http.Server
	url    string
	served chan error
	hc     *http.Client
}

// startServer starts one service on a loopback port.
func startServer(o serverOpts) (*server, error) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg := serve.Config{Logger: logger}
	if o.obsOff {
		cfg.TraceCapacity, cfg.JournalCapacity = -1, -1
	}
	if o.storeDir != "" {
		st, err := store.Open(o.storeDir, store.Options{Logger: logger})
		if err != nil {
			return nil, fmt.Errorf("opening store: %w", err)
		}
		cfg.Store = st
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		svc:    serve.New(cfg),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	s.hs = &http.Server{Handler: s.svc}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop stops the listener and then the service, and waits for both.
func (s *server) stop() error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		errs = append(errs, err)
	}
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	if err := s.svc.Shutdown(ctx); err != nil {
		errs = append(errs, err)
	}
	s.hc.CloseIdleConnections()
	return errors.Join(errs...)
}

// jobView is the part of GET /jobs/{id} the benchmark reads.
type jobView struct {
	ID          string           `json:"id"`
	Status      string           `json:"status"`
	Error       string           `json:"error"`
	AuditStatus string           `json:"audit_status"`
	Result      *serve.JobResult `json:"result"`
}

func (s *server) getJSON(path string, v any) error {
	resp, err := s.hc.Get(s.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, v)
}

// submit posts one job and returns its id.
func (s *server) submit(body []byte) (string, error) {
	resp, err := s.hc.Post(s.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /jobs: %s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", err
	}
	return v.ID, nil
}

// awaitEvent blocks until the job's SSE stream delivers its done event.
func (s *server) awaitEvent(id string) error {
	resp, err := s.hc.Get(s.url + "/debug/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events of %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events of %s ended before done", id)
}

// pollInterval is the fine-grained poll used where the journal's event
// stream is off; it is well below the shortest job.
const pollInterval = time.Millisecond

// awaitPoll polls the job until it leaves the queued and running states.
func (s *server) awaitPoll(id string) (jobView, error) {
	for {
		var v jobView
		if err := s.getJSON("/jobs/"+id, &v); err != nil {
			return v, err
		}
		if v.Status != string(serve.JobQueued) && v.Status != string(serve.JobRunning) {
			return v, nil
		}
		time.Sleep(pollInterval)
	}
}

// outcome is one finished job as the client saw it.
type outcome struct {
	Job   int           // index into the workload's round
	Wall  time.Duration // submission (restart: store open) to terminal status
	View  jobView
	Audit *audit.Report   // audited jobs
	Rec   *journal.Record // traced runs only
	Err   error           // transport or protocol failure

	PeakRSSMB float64 // the process's peak RSS while the job ran
}

// waitMode is how a client learns that a job finished.
type waitMode int

const (
	waitEvents waitMode = iota // the done event of /debug/jobs/{id}/events
	waitPoll                   // fine-grained polling of /jobs/{id}
)

// runJob submits body, waits for the terminal status, and collects what
// the checks need: the result, the audit report, and with record the
// journal's flight record. Wall starts at start.
func (s *server) runJob(start time.Time, body []byte, mode waitMode, record bool) outcome {
	var o outcome
	id, err := s.submit(body)
	if err != nil {
		o.Err = err
		return o
	}
	if mode == waitEvents {
		err = s.awaitEvent(id)
		o.Wall = time.Since(start)
		if err == nil {
			err = s.getJSON("/jobs/"+id, &o.View)
		}
	} else {
		o.View, err = s.awaitPoll(id)
		o.Wall = time.Since(start)
	}
	if err != nil {
		o.Err = err
		return o
	}
	if o.View.AuditStatus != "" {
		o.Audit = &audit.Report{}
		if err := s.getJSON("/debug/audit?job="+id, o.Audit); err != nil {
			o.Err = err
			return o
		}
	}
	if record {
		o.Rec = &journal.Record{}
		if err := s.getJSON("/debug/jobs/"+id, o.Rec); err != nil {
			o.Err = err
		}
	}
	return o
}
