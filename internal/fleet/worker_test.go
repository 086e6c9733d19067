package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/stacks"
	"repro/internal/store"
)

// worker_test.go — the worker's liveness endpoints mirror rpserved's:
// /healthz always answers 200 and names the state; /readyz flips to 503 the
// moment the worker starts draining.

func testWorkerOnly(t *testing.T) *Worker {
	t.Helper()
	shared, err := store.OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return NewWorker(WorkerConfig{
		CoordinatorURL: "http://127.0.0.1:0", // never dialed in these tests
		Shared:         shared,
		ID:             "probe",
	})
}

func probe(t *testing.T, h http.Handler, path string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: non-JSON body %q", path, rec.Body.String())
	}
	return rec.Code, body
}

func TestWorkerHealthTransitions(t *testing.T) {
	w := testWorkerOnly(t)
	h := w.Handler()

	if code, body := probe(t, h, "/healthz"); code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("/healthz = %d %v, want 200 ok", code, body)
	}
	if code, body := probe(t, h, "/readyz"); code != http.StatusOK || body["status"] != "ready" {
		t.Errorf("/readyz = %d %v, want 200 ready", code, body)
	}

	w.Drain()

	if code, body := probe(t, h, "/healthz"); code != http.StatusOK || body["status"] != "draining" {
		t.Errorf("drained /healthz = %d %v, want 200 draining", code, body)
	}
	if code, body := probe(t, h, "/readyz"); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Errorf("drained /readyz = %d %v, want 503 draining", code, body)
	}
	if _, body := probe(t, h, "/healthz"); body["worker"] != "probe" {
		t.Errorf("healthz worker = %q, want probe", body["worker"])
	}
	if _, body := probe(t, h, "/healthz"); body["uptime_seconds"] == nil {
		t.Error("healthz missing uptime_seconds")
	}
}

// TestWorkerDrainStopsRun: a drained worker's Run returns nil without ever
// needing a reachable coordinator.
func TestWorkerDrainStopsRun(t *testing.T) {
	w := testWorkerOnly(t)
	w.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("drained Run = %v, want nil", err)
	}
}

// TestUnknownEngineRefused: a sweep naming an engine outside the resolver's
// table is refused by the coordinator before it is registered and by a
// worker before it rebuilds any inputs.
func TestUnknownEngineRefused(t *testing.T) {
	w := testWorkerOnly(t)
	spec := SweepSpec{Workload: "429.mcf", Seed: 1, MicroOps: 100, Engine: "oracle", Axes: []string{"L1D=1,2"}}
	if _, err := w.buildSweep(sweepInfo{ID: "00", Spec: spec, Points: 2}); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("worker buildSweep = %v, want an unknown-engine refusal", err)
	}

	shared, err := store.OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{Shared: shared})
	_, err = coord.Run(context.Background(), Sweep{
		Spec:        spec,
		Points:      make([]stacks.Latencies, 2),
		Fingerprint: make([]byte, sha256.Size),
	})
	if err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("coordinator Run = %v, want an unknown-engine refusal", err)
	}
}
