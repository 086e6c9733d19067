package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/serve"
)

// env is one workload's set-up service, ready for timed jobs.
type env struct {
	w      *benchWorkload
	dir    string   // scratch directory this env owns
	bodies [][]byte // request body of each round job
	obsOff bool

	srv *server // the long-lived server (warm)
	seq int     // cold: fresh store directories handed out
}

// body renders one job as the POST /jobs body. uploads holds the encoded
// trace of every upload input.
func body(j jobDef, uploads map[input][]byte) ([]byte, error) {
	req := serve.JobRequest{
		Axes:          j.Axes,
		Engine:        j.Engine,
		Top:           j.Top,
		Search:        j.Search,
		AuditFraction: j.AuditFraction,
		AuditSeed:     j.AuditSeed,
	}
	if j.In.Upload {
		raw, ok := uploads[j.In]
		if !ok {
			return nil, fmt.Errorf("no upload for %s", j.In)
		}
		req.TraceB64 = base64.StdEncoding.EncodeToString(raw)
	} else {
		req.Workload, req.MicroOps, req.Seed = j.In.App, j.In.MicroOps, j.In.Seed
	}
	return json.Marshal(req)
}

// primeJob is the cheapest job over one input: one design point. Running
// it simulates and analyses the input and fills the server's caches.
func primeJob(in input) jobDef {
	return jobDef{In: in, Engine: "rpstacks", Axes: []string{"L1D=4"}, Top: 1}
}

// newEnv sets the workload up from nothing: it simulates and encodes the
// upload traces, renders the request bodies, and starts and primes the
// service the workload's kind needs. This is what setup_s measures.
func newEnv(w *benchWorkload, dir string, obsOff bool) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	uploads := map[input][]byte{}
	for _, in := range w.inputs() {
		if !in.Upload {
			continue
		}
		tr, _, err := simulate(in, nil)
		if err != nil {
			return nil, err
		}
		if uploads[in], err = encodeTrace(tr); err != nil {
			return nil, err
		}
	}
	e := &env{w: w, dir: dir, obsOff: obsOff}
	for _, j := range w.Round {
		b, err := body(j, uploads)
		if err != nil {
			return nil, err
		}
		e.bodies = append(e.bodies, b)
	}
	var primes [][]byte
	for _, in := range w.inputs() {
		b, err := body(primeJob(in), uploads)
		if err != nil {
			return nil, err
		}
		primes = append(primes, b)
	}
	prime := func(srv *server, bodies [][]byte) error {
		for _, b := range bodies {
			o := srv.runJob(time.Now(), b, waitPoll, false)
			if o.Err == nil && o.View.Status != string(serve.JobDone) {
				o.Err = fmt.Errorf("priming job ended %s: %s", o.View.Status, o.View.Error)
			}
			if o.Err != nil {
				return o.Err
			}
		}
		return nil
	}

	switch w.Kind {
	case kindCold:
		// Open and close one server over an empty store, as every job will.
		srv, err := startServer(serverOpts{storeDir: e.freshDir(), obsOff: obsOff})
		if err != nil {
			return nil, err
		}
		if err := srv.stop(); err != nil {
			return nil, err
		}
	case kindWarm:
		srv, err := startServer(serverOpts{obsOff: obsOff})
		if err != nil {
			return nil, err
		}
		e.srv = srv
		if err := prime(srv, primes); err != nil {
			e.close()
			return nil, err
		}
	case kindRestart:
		// Fill the store through the cold path, then stop: every timed job
		// restarts over it.
		srv, err := startServer(serverOpts{storeDir: e.storeDir(), obsOff: obsOff})
		if err != nil {
			return nil, err
		}
		err = prime(srv, primes)
		if serr := srv.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *env) storeDir() string { return filepath.Join(e.dir, "store") }

func (e *env) freshDir() string {
	e.seq++
	return filepath.Join(e.dir, fmt.Sprintf("cold-%d", e.seq))
}

// run executes round job ji the way the workload's kind prescribes.
// Cold and restart jobs each get their own server; restart jobs are timed
// from the store open, cold jobs from submission.
func (e *env) run(ji int, mode waitMode, record bool) outcome {
	var o outcome
	resetPeakRSS()
	switch e.w.Kind {
	case kindCold:
		dir := e.freshDir()
		srv, err := startServer(serverOpts{storeDir: dir, obsOff: e.obsOff})
		if err != nil {
			o.Err = err
			break
		}
		o = srv.runJob(time.Now(), e.bodies[ji], mode, record)
		if err := srv.stop(); err != nil && o.Err == nil {
			o.Err = err
		}
		if err := os.RemoveAll(dir); err != nil && o.Err == nil {
			o.Err = err
		}
		o.PeakRSSMB = peakRSSMB()
		// A cold job stands for a fresh process: hand the stopped server's
		// memory back before the next one.
		runtime.GC()
		debug.FreeOSMemory()
	case kindRestart:
		start := time.Now()
		srv, err := startServer(serverOpts{storeDir: e.storeDir(), obsOff: e.obsOff})
		if err != nil {
			o.Err = err
			break
		}
		o = srv.runJob(start, e.bodies[ji], mode, record)
		if err := srv.stop(); err != nil && o.Err == nil {
			o.Err = err
		}
	default:
		o = e.srv.runJob(time.Now(), e.bodies[ji], mode, record)
	}
	if o.PeakRSSMB == 0 {
		o.PeakRSSMB = peakRSSMB()
	}
	o.Job = ji
	return o
}

// close stops the env's server and removes its directory.
func (e *env) close() error {
	var err error
	if e.srv != nil {
		err = e.srv.stop()
		e.srv = nil
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// closedLoop runs the jobs sch deals from one closed-loop client, each
// sent once the previous one finished, until at least d has passed. It
// runs at least one round, and a started round is always finished, so
// every run weighs the mix's jobs alike. It returns every outcome and the
// wall time from the first submission to the last completion.
func closedLoop(e *env, sch *schedule, d time.Duration, mode waitMode, record bool) ([]outcome, time.Duration) {
	var outs []outcome
	start := time.Now()
	for sch.next == 0 || !sch.atRoundStart() || time.Since(start) < d {
		outs = append(outs, e.run(sch.deal(), mode, record))
	}
	return outs, time.Since(start)
}
