package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/stacks"
	"repro/internal/store"
)

// lease_test.go — the lease state machine driven at the protocol level with
// an injected clock and hand-made chunk blobs: no engines, no waiting on
// real TTLs. Every expiry in here is a clock.Advance, never a sleep.

// fakeClock is a mutex-guarded manual clock for CoordinatorConfig.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// protoEnv is a coordinator under a fake clock with one registered synthetic
// sweep: engine tag "graph" but entirely fake inputs — the protocol layer
// never evaluates anything, it only verifies blobs against the fingerprint.
type protoEnv struct {
	t      *testing.T
	clock  *fakeClock
	coord  *Coordinator
	shared *store.Shared
	srv    *httptest.Server
	sw     Sweep
	id     string
	resCh  chan protoRes
	cancel context.CancelFunc
}

type protoRes struct {
	rep *dse.Report
	err error
}

// newProtoEnv registers an n-point sweep (ChunkSize csize) named after the
// test and waits until it is leasable.
func newProtoEnv(t *testing.T, ttl time.Duration, n, csize int) *protoEnv {
	t.Helper()
	shared, err := store.OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	coord := NewCoordinator(CoordinatorConfig{
		Shared:   shared,
		LeaseTTL: ttl,
		WaitHint: time.Millisecond,
		Now:      clock.Now,
	})
	fp := sha256.Sum256([]byte("proto-sweep-" + t.Name()))
	sw := Sweep{
		Spec: SweepSpec{
			Workload: "synthetic",
			Engine:   "graph",
			Axes:     []string{"L1D=1"},
		},
		Points:      make([]stacks.Latencies, n),
		Fingerprint: fp[:],
		ChunkSize:   csize,
	}
	env := &protoEnv{
		t:      t,
		clock:  clock,
		coord:  coord,
		shared: shared,
		srv:    httptest.NewServer(coord),
		sw:     sw,
		id:     fmt.Sprintf("%x", fp[:]),
		resCh:  make(chan protoRes, 1),
	}
	ctx, cancel := context.WithCancel(context.Background())
	env.cancel = cancel
	go func() {
		rep, err := coord.Run(ctx, sw)
		env.resCh <- protoRes{rep, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for coord.activeSweeps() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never registered")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		cancel()
		env.srv.Close()
	})
	return env
}

func (e *protoEnv) post(path string, req, out any) int {
	e.t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		e.t.Fatal(err)
	}
	resp, err := http.Post(e.srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

func (e *protoEnv) lease(worker string) leaseResponse {
	e.t.Helper()
	var resp leaseResponse
	if st := e.post("/fleet/v1/lease", leaseRequest{Worker: worker}, &resp); st != http.StatusOK {
		e.t.Fatalf("lease: HTTP %d", st)
	}
	return resp
}

func (e *protoEnv) mustLease(worker string) leaseResponse {
	e.t.Helper()
	resp := e.lease(worker)
	if resp.Status != "lease" {
		e.t.Fatalf("lease for %s: status %q, want a grant", worker, resp.Status)
	}
	return resp
}

func (e *protoEnv) heartbeat(worker string, lease uint64) (int, heartbeatResponse) {
	e.t.Helper()
	var resp heartbeatResponse
	st := e.post("/fleet/v1/heartbeat", heartbeatRequest{Worker: worker, Lease: lease}, &resp)
	return st, resp
}

func (e *protoEnv) complete(worker string, lease uint64, chunk int) (int, completeResponse) {
	e.t.Helper()
	var resp completeResponse
	st := e.post("/fleet/v1/complete", completeRequest{
		Worker: worker, Lease: lease, SweepID: e.id, Chunk: chunk,
	}, &resp)
	return st, resp
}

// publish writes the synthetic chunk blob for [lo, hi): cycles = 100 + idx,
// so assembled results are checkable.
func (e *protoEnv) publish(lo, hi, chunk int) {
	e.t.Helper()
	idxs := make([]int, hi-lo)
	cycles := make([]float64, hi-lo)
	for k := range idxs {
		idxs[k] = lo + k
		cycles[k] = float64(100 + lo + k)
	}
	blob, err := dse.EncodeChunk(e.sw.Fingerprint, idxs, cycles)
	if err != nil {
		e.t.Fatal(err)
	}
	if _, err := e.shared.Put(chunkKey(e.id, chunk), blob); err != nil {
		e.t.Fatal(err)
	}
}

// finish waits for the background Run and checks the assembled cycles.
func (e *protoEnv) finish() *dse.Report {
	e.t.Helper()
	select {
	case res := <-e.resCh:
		if res.err != nil {
			e.t.Fatalf("sweep run: %v", res.err)
		}
		for i, r := range res.rep.Results {
			if r.Cycles != float64(100+i) {
				e.t.Fatalf("point %d: cycles %v, want %v", i, r.Cycles, float64(100+i))
			}
		}
		return res.rep
	case <-time.After(10 * time.Second):
		e.t.Fatal("sweep never finished")
		return nil
	}
}

// TestLeaseHeartbeatAfterExpiry: a heartbeat arriving after the TTL passed
// answers 410 Gone, the lease is revoked, and the chunk is immediately
// re-leasable as a fresh (non-stolen) grant.
func TestLeaseHeartbeatAfterExpiry(t *testing.T) {
	e := newProtoEnv(t, 10*time.Second, 4, 2) // 2 chunks
	g := e.mustLease("w1")
	if g.Chunk != 0 || g.Stolen {
		t.Fatalf("first grant: chunk %d stolen=%v, want fresh chunk 0", g.Chunk, g.Stolen)
	}
	e.clock.Advance(11 * time.Second)
	if st, resp := e.heartbeat("w1", g.Lease); st != http.StatusGone || resp.Status != "expired" {
		t.Fatalf("heartbeat after expiry: HTTP %d %q, want 410 expired", st, resp.Status)
	}
	if got := e.coord.metrics.expired.Value(); got != 1 {
		t.Errorf("expired = %v, want 1", got)
	}
	g2 := e.mustLease("w2")
	if g2.Chunk != 0 || g2.Stolen {
		t.Errorf("post-expiry grant: chunk %d stolen=%v, want pending chunk 0 again", g2.Chunk, g2.Stolen)
	}
	if got := e.coord.metrics.stolen.Value(); got != 0 {
		t.Errorf("stolen = %v, want 0: expiry reverts the chunk to pending, no steal", got)
	}
}

// TestLeaseRenewal: heartbeats inside the TTL keep a lease alive arbitrarily
// far past its original expiry; another worker is routed around the held
// chunk the whole time.
func TestLeaseRenewal(t *testing.T) {
	e := newProtoEnv(t, 10*time.Second, 4, 2)
	g := e.mustLease("w1")
	for i := 0; i < 5; i++ { // 30s of renewals against a 10s TTL
		e.clock.Advance(6 * time.Second)
		if st, resp := e.heartbeat("w1", g.Lease); st != http.StatusOK || resp.Status != "ok" {
			t.Fatalf("renewal %d: HTTP %d %q", i, st, resp.Status)
		}
	}
	if got := e.coord.metrics.expired.Value(); got != 0 {
		t.Errorf("expired = %v after in-TTL renewals, want 0", got)
	}
	if g2 := e.mustLease("w2"); g2.Chunk != 1 {
		t.Errorf("other worker got chunk %d, want 1: chunk 0 is alive and held", g2.Chunk)
	}
}

// TestStolenChunkDoubleCompletion: a stale chunk is stolen by a second
// worker; both publish the (identical) blob and both complete. The first
// completion wins, the second is an idempotent duplicate, and the blob is
// written exactly once.
func TestStolenChunkDoubleCompletion(t *testing.T) {
	e := newProtoEnv(t, time.Hour, 8, 2) // 4 chunks; expiry never interferes
	slow := e.mustLease("w1")            // chunk 0, held throughout

	// w2 drains chunks 1 and 2, keeps 3 in flight so the sweep stays active.
	for want := 1; want <= 2; want++ {
		g := e.mustLease("w2")
		if g.Chunk != want {
			t.Fatalf("w2 got chunk %d, want %d", g.Chunk, want)
		}
		e.publish(g.Lo, g.Hi, g.Chunk)
		if st, resp := e.complete("w2", g.Lease, g.Chunk); st != http.StatusOK || resp.Status != "ok" {
			t.Fatalf("chunk %d completion: HTTP %d %q", g.Chunk, st, resp.Status)
		}
	}
	held := e.mustLease("w2") // chunk 3, deliberately left incomplete for now
	if held.Chunk != 3 {
		t.Fatalf("w2 got chunk %d, want 3", held.Chunk)
	}

	// No pending chunks remain, so w2's next ask steals w1's chunk 0.
	stolen := e.mustLease("w2")
	if stolen.Chunk != 0 || !stolen.Stolen {
		t.Fatalf("grant = chunk %d stolen=%v, want stolen chunk 0", stolen.Chunk, stolen.Stolen)
	}
	if got := e.coord.metrics.stolen.Value(); got != 1 {
		t.Errorf("stolen = %v, want 1", got)
	}

	// Both workers publish byte-identical blobs; the second Put must be a
	// dedup, not a rewrite.
	e.publish(stolen.Lo, stolen.Hi, 0)
	e.publish(slow.Lo, slow.Hi, 0)
	if st := e.shared.Stats(); st.Duplicates != 1 {
		t.Errorf("shared duplicates = %d, want 1", st.Duplicates)
	}
	if st, resp := e.complete("w2", stolen.Lease, 0); st != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("stolen completion: HTTP %d %q", st, resp.Status)
	}
	if st, resp := e.complete("w1", slow.Lease, 0); st != http.StatusOK || resp.Status != "duplicate" {
		t.Fatalf("late completion: HTTP %d %q, want 200 duplicate", st, resp.Status)
	}
	if got := e.coord.metrics.completed.With("duplicate").Value(); got != 1 {
		t.Errorf("completed{duplicate} = %v, want 1", got)
	}

	e.publish(held.Lo, held.Hi, 3)
	if st, resp := e.complete("w2", held.Lease, 3); st != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("final completion: HTTP %d %q", st, resp.Status)
	}
	e.finish()
	if got := e.coord.metrics.completed.With("first").Value(); got != 4 {
		t.Errorf("completed{first} = %v, want 4", got)
	}
}

// TestCompleteAfterExpiry: a completion whose lease expired is still
// accepted — the verified blob, not the lease, is the proof of work — and
// the work is never redone.
func TestCompleteAfterExpiry(t *testing.T) {
	e := newProtoEnv(t, 10*time.Second, 4, 2)
	g := e.mustLease("w1")
	e.clock.Advance(11 * time.Second)
	e.publish(g.Lo, g.Hi, g.Chunk)
	if st, resp := e.complete("w1", g.Lease, g.Chunk); st != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("post-expiry completion: HTTP %d %q, want 200 ok", st, resp.Status)
	}
	if got := e.coord.metrics.expired.Value(); got != 1 {
		t.Errorf("expired = %v, want 1", got)
	}
	// The expired-then-completed chunk must not be granted again.
	g2 := e.mustLease("w2")
	if g2.Chunk != 1 {
		t.Fatalf("w2 got chunk %d, want 1: chunk 0 is done", g2.Chunk)
	}
	e.publish(g2.Lo, g2.Hi, g2.Chunk)
	if st, resp := e.complete("w2", g2.Lease, g2.Chunk); st != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("final completion: HTTP %d %q", st, resp.Status)
	}
	e.finish()
}

// TestCompleteWithoutBlob: completing a chunk whose blob was never published
// is a 409 and leaves the chunk completable later.
func TestCompleteWithoutBlob(t *testing.T) {
	e := newProtoEnv(t, time.Hour, 2, 2) // single chunk
	g := e.mustLease("w1")
	if st, _ := e.complete("w1", g.Lease, g.Chunk); st != http.StatusConflict {
		t.Fatalf("blobless completion: HTTP %d, want 409", st)
	}
	e.publish(g.Lo, g.Hi, g.Chunk)
	if st, resp := e.complete("w1", g.Lease, g.Chunk); st != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("retried completion: HTTP %d %q", st, resp.Status)
	}
	e.finish()
}

// TestStragglerBlobsAfterAssembly: the worker that lost a stolen chunk
// publishes its blobs only after the sweep is assembled and unregistered —
// assembly's cleanup is already over. Its completion is still acknowledged
// as a duplicate, and it deletes what the straggler re-published, so the
// shared root holds nothing of the finished sweep.
func TestStragglerBlobsAfterAssembly(t *testing.T) {
	e := newProtoEnv(t, time.Hour, 4, 2) // 2 chunks
	slow := e.mustLease("w1")            // chunk 0, the straggler
	g := e.mustLease("w2")
	e.publish(g.Lo, g.Hi, g.Chunk)
	if st, resp := e.complete("w2", g.Lease, g.Chunk); st != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("chunk %d completion: HTTP %d %q", g.Chunk, st, resp.Status)
	}
	stolen := e.mustLease("w2")
	if stolen.Chunk != 0 || !stolen.Stolen {
		t.Fatalf("grant = chunk %d stolen=%v, want stolen chunk 0", stolen.Chunk, stolen.Stolen)
	}
	e.publish(stolen.Lo, stolen.Hi, 0)
	if st, resp := e.complete("w2", stolen.Lease, 0); st != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("stolen completion: HTTP %d %q", st, resp.Status)
	}
	e.finish()
	if n := e.coord.activeSweeps(); n != 0 {
		t.Fatalf("activeSweeps = %d after Run returned, want 0", n)
	}

	e.publish(slow.Lo, slow.Hi, 0)
	if _, err := e.shared.Put(fragKey(e.id, 0), []byte("late fragment")); err != nil {
		t.Fatal(err)
	}
	if st, resp := e.complete("w1", slow.Lease, 0); st != http.StatusOK || resp.Status != "duplicate" {
		t.Fatalf("straggler completion: HTTP %d %q, want 200 duplicate", st, resp.Status)
	}
	for i := 0; i < 2; i++ {
		if _, ok := e.shared.Get(chunkKey(e.id, i)); ok {
			t.Errorf("chunk %d blob survived the straggler's completion", i)
		}
	}
	if _, ok := e.shared.Get(fragKey(e.id, 0)); ok {
		t.Error("straggler's fragment blob survived its completion")
	}
}
