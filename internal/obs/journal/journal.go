// Package journal keeps one wide-event flight record per exploration job —
// the retrospective answer to "what happened to job X": spec summary, stage
// timings fed from the job's span records, cache outcomes, fleet lease
// churn, search and audit verdicts, terminal status — plus the live answer
// to "how is it doing right now": a per-job event stream (queued → running →
// progress → fleet → done) with monotonic sequence numbers, bounded
// subscriber buffers and slow-reader drop accounting.
//
// Records persist through an optional store (rpserved passes its durable
// artifact store), so a restarted service still serves last week's flight
// records and replays their event logs. The store has no key enumeration,
// so the journal maintains its own index blob under a fixed key.
//
// A nil *Journal is valid and does nothing — the disabled form, mirroring
// the obs.Tracer convention — which is what makes the journal provably
// inert: the differential test runs the same sweep with and without one.
package journal

import (
	"encoding/json"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Store is the durable face the journal persists through — the subset of
// store.Store it needs. Nil keeps records in memory only.
type Store interface {
	Get(key string) ([]byte, time.Duration, bool)
	Put(key string, payload []byte, cost time.Duration) error
}

// Storage keys.
const indexKey = "journal|index"

func recordKey(jobID string) string { return "journal|job|" + jobID }

// SearchStats summarizes a guided-search job's probe loop on the record.
type SearchStats struct {
	Mode      string `json:"mode"`
	Probes    int    `json:"probes"`
	Rounds    int    `json:"rounds"`
	Converged bool   `json:"converged"`
	Feasible  bool   `json:"feasible"`
	Verified  bool   `json:"verified"`
}

// Record is one job's wide-event flight record. The submission fields are
// set by the caller at JobQueued; stage timings and cache/fleet counts
// accumulate from span records via ObserveSpan; the rest lands at
// JobFinished. Events is the bounded retained event log — what Last-Event-ID
// replay serves after the live stream (or the whole process) is gone.
type Record struct {
	JobID       string    `json:"job_id"`
	Status      string    `json:"status"`
	Engine      string    `json:"engine"`
	Workload    string    `json:"workload,omitempty"`
	TraceDigest string    `json:"trace_digest,omitempty"`
	GridPoints  int       `json:"grid_points"`
	BatchSize   int       `json:"batch_size,omitempty"`
	Workers     int       `json:"sweep_workers,omitempty"`
	Submitted   time.Time `json:"submitted"`
	Started     time.Time `json:"started"`
	Finished    time.Time `json:"finished"`

	QueueMS    float64 `json:"queue_ms"`
	SetupMS    float64 `json:"setup_ms"`
	SweepMS    float64 `json:"sweep_ms"`
	AssembleMS float64 `json:"assemble_ms,omitempty"`

	SetupCached   bool `json:"setup_cached"`
	CacheMemHits  int  `json:"cache_mem_hits,omitempty"`
	CacheDiskHits int  `json:"cache_disk_hits,omitempty"`
	CacheBuilds   int  `json:"cache_builds,omitempty"`

	FleetChunks   int `json:"fleet_chunks,omitempty"`
	FleetSteals   int `json:"fleet_steals,omitempty"`
	FleetExpiries int `json:"fleet_expiries,omitempty"`
	FleetWorkers  int `json:"fleet_workers,omitempty"`

	Search      *SearchStats `json:"search,omitempty"`
	AuditStatus string       `json:"audit_status,omitempty"`
	Error       string       `json:"error,omitempty"`

	Events []Event `json:"events,omitempty"`
}

// Finish carries a job's terminal summary into JobFinished. Zero-valued
// fields leave whatever the record already accumulated.
type Finish struct {
	Status      string
	Error       string
	TraceDigest string
	GridPoints  int
	BatchSize   int
	Workers     int
	SweepMS     float64
	SetupCached bool
	AuditStatus string
	Search      *SearchStats
}

// Options parameterizes New.
type Options struct {
	// Store persists finished records; nil keeps them in memory only.
	Store Store
	// Capacity bounds in-memory finished records and the persisted index
	// (default 512).
	Capacity int
	// EventCapacity bounds each job's retained event log (default 256);
	// the oldest events of a very chatty job are dropped, sequence numbers
	// preserved.
	EventCapacity int
	// SubscriberBuffer is each live subscriber's channel depth (default
	// 64). A subscriber that falls further behind than this drops events —
	// counted, never blocking the job.
	SubscriberBuffer int
	// ProgressInterval paces progress events (0: 500ms; negative: every
	// chunk — tests want every observation).
	ProgressInterval time.Duration
	// Now is the journal clock, injectable for tests (nil: time.Now).
	Now func() time.Time
	// Logger receives persistence trouble. Nil discards.
	Logger *slog.Logger
}

// Journal is the per-process record keeper. Create with New; a nil *Journal
// is the disabled form (every method no-ops).
type Journal struct {
	store    Store
	capacity int
	eventCap int
	bufCap   int
	interval time.Duration
	now      func() time.Time
	logger   *slog.Logger

	dropped     atomic.Uint64 // events dropped on slow subscriber buffers
	persistErrs atomic.Uint64

	mu        sync.Mutex
	jobs      map[string]*jobState
	doneOrder []string // finished job IDs, oldest first (memory retention)
	index     []string // persisted job IDs, oldest first (mirrors indexKey)
}

// jobState is one live (or retained) job. st.mu guards everything below it;
// lock ordering is Journal.mu before st.mu, and Progress's own lock before
// st.mu (the emit hook locks st.mu, so st.mu must never be held across a
// Progress call).
type jobState struct {
	prog *obs.Progress

	mu     sync.Mutex
	rec    Record
	events []Event
	seq    uint64
	done   bool
	subs   map[chan Event]struct{}
}

// New builds a Journal and warm-loads the persisted index when a store is
// mounted.
func New(opts Options) *Journal {
	if opts.Capacity <= 0 {
		opts.Capacity = 512
	}
	if opts.EventCapacity <= 0 {
		opts.EventCapacity = 256
	}
	if opts.SubscriberBuffer <= 0 {
		opts.SubscriberBuffer = 64
	}
	if opts.ProgressInterval == 0 {
		opts.ProgressInterval = 500 * time.Millisecond
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	j := &Journal{
		store:    opts.Store,
		capacity: opts.Capacity,
		eventCap: opts.EventCapacity,
		bufCap:   opts.SubscriberBuffer,
		interval: opts.ProgressInterval,
		now:      opts.Now,
		logger:   opts.Logger,
		jobs:     make(map[string]*jobState),
	}
	if j.store != nil {
		if raw, _, ok := j.store.Get(indexKey); ok {
			var ids []string
			if err := json.Unmarshal(raw, &ids); err == nil {
				j.index = ids
			}
		}
	}
	return j
}

// JobQueued opens a job's flight record and emits its queued event. The
// caller fills the submission-time fields of rec (engine, workload, grid
// size, submitted); everything else accumulates later.
func (j *Journal) JobQueued(id string, rec Record) {
	if j == nil {
		return
	}
	rec.JobID = id
	rec.Status = "queued"
	if rec.Submitted.IsZero() {
		rec.Submitted = j.now()
	}
	st := &jobState{rec: rec, subs: make(map[chan Event]struct{})}
	st.prog = obs.NewProgressFunc(func(u obs.ProgressUpdate) {
		st.mu.Lock()
		j.emitLocked(st, ProgressEvent(u))
		st.mu.Unlock()
	}, rec.GridPoints, j.interval, j.now)

	j.mu.Lock()
	j.jobs[id] = st
	j.mu.Unlock()

	st.mu.Lock()
	j.emitLocked(st, Event{Type: EventQueued})
	st.mu.Unlock()
}

// Discard forgets a job that never made it onto the queue (load-shed at
// submission); nothing is emitted or persisted.
func (j *Journal) Discard(id string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	delete(j.jobs, id)
	j.mu.Unlock()
}

// JobRunning marks the job claimed by a worker at the given time and emits
// its running event. The caller passes the time so the record's Started is
// the same reading as its own job timestamps.
func (j *Journal) JobRunning(id string, at time.Time) {
	if j == nil {
		return
	}
	st := j.state(id)
	if st == nil {
		return
	}
	st.mu.Lock()
	st.rec.Status = "running"
	st.rec.Started = at
	j.emitLocked(st, Event{Type: EventRunning})
	st.mu.Unlock()
}

// ObserveSpan feeds one completed span of the job's tracer into the record:
// chunk and resume spans drive the progress meter (fleet chunk completions
// included — the coordinator ends one CatFleet chunk span per accepted
// worker self-report), lifecycle spans land as stage timings, cache lookups
// as outcome counts. Wire it beside the metrics hook in the tracer's
// WithOnEnd.
func (j *Journal) ObserveSpan(id string, rec obs.Record) {
	if j == nil {
		return
	}
	st := j.state(id)
	if st == nil {
		return
	}
	switch {
	case rec.Cat == obs.CatDSE && (rec.Name == obs.NameChunk || rec.Name == obs.NameResume):
		st.prog.Observe(rec)
	case rec.Cat == obs.CatFleet && rec.Name == obs.NameChunk:
		st.mu.Lock()
		st.rec.FleetChunks++
		st.mu.Unlock()
		// Re-shape to the record kind the meter counts: a fleet chunk's
		// accepted completion is a chunk done, points in Arg either way.
		st.prog.Observe(obs.Record{Cat: obs.CatDSE, Name: obs.NameChunk, Arg: rec.Arg})
	case rec.Cat == obs.CatJob && rec.Name == obs.NameQueueWait:
		st.mu.Lock()
		st.rec.QueueMS = durMS(rec.Dur)
		st.mu.Unlock()
	case rec.Cat == obs.CatJob && rec.Name == obs.NameSetup:
		st.mu.Lock()
		st.rec.SetupMS += durMS(rec.Dur)
		st.mu.Unlock()
	case rec.Cat == obs.CatFleet && rec.Name == obs.NameAssemble:
		st.mu.Lock()
		st.rec.AssembleMS += durMS(rec.Dur)
		st.mu.Unlock()
	case rec.Cat == obs.CatCache:
		st.mu.Lock()
		switch rec.Name {
		case "mem-hit":
			st.rec.CacheMemHits++
		case "disk-hit":
			st.rec.CacheDiskHits++
		case "build":
			st.rec.CacheBuilds++
		}
		st.mu.Unlock()
	}
}

// FleetEvent records one lease-lifecycle notification (lease, steal,
// expire) from the coordinator against the job the sweep belongs to, and
// emits it on the live stream.
func (j *Journal) FleetEvent(id, kind string, chunk int, worker string) {
	if j == nil {
		return
	}
	st := j.state(id)
	if st == nil {
		return
	}
	st.mu.Lock()
	switch kind {
	case FleetSteal:
		st.rec.FleetSteals++
	case FleetExpire:
		st.rec.FleetExpiries++
	}
	c := chunk
	j.emitLocked(st, Event{Type: EventFleet, Fleet: kind, Chunk: &c, Worker: worker})
	st.mu.Unlock()
}

// JobFinished closes the record at the given time: final progress flush,
// terminal event, subscriber shutdown, persistence, memory retention. Safe
// to call once per job.
func (j *Journal) JobFinished(id string, at time.Time, fin Finish) {
	if j == nil {
		return
	}
	st := j.state(id)
	if st == nil {
		return
	}
	// The flush emits through the progress hook, which locks st.mu — so it
	// must run before we take the lock ourselves.
	st.prog.Flush()

	st.mu.Lock()
	r := &st.rec
	r.Status = fin.Status
	r.Error = fin.Error
	r.Finished = at
	if fin.TraceDigest != "" {
		r.TraceDigest = fin.TraceDigest
	}
	if fin.GridPoints > 0 {
		r.GridPoints = fin.GridPoints
	}
	if fin.BatchSize > 0 {
		r.BatchSize = fin.BatchSize
	}
	if fin.Workers > 0 {
		r.Workers = fin.Workers
	}
	if fin.SweepMS > 0 {
		r.SweepMS = fin.SweepMS
	}
	if fin.SetupCached {
		r.SetupCached = true
	}
	if fin.AuditStatus != "" {
		r.AuditStatus = fin.AuditStatus
	}
	if fin.Search != nil {
		r.Search = fin.Search
	}
	workers := make(map[string]bool)
	for _, ev := range st.events {
		if ev.Type == EventFleet && ev.Worker != "" {
			workers[ev.Worker] = true
		}
	}
	if len(workers) > 0 {
		r.FleetWorkers = len(workers)
	}
	j.emitLocked(st, Event{Type: EventDone, Status: fin.Status, Error: fin.Error})
	st.done = true
	for ch := range st.subs {
		close(ch)
	}
	st.subs = make(map[chan Event]struct{})
	persisted := *r
	persisted.Events = append([]Event(nil), st.events...)
	st.mu.Unlock()

	j.persist(persisted)

	j.mu.Lock()
	j.doneOrder = append(j.doneOrder, id)
	for len(j.doneOrder) > j.capacity {
		delete(j.jobs, j.doneOrder[0])
		j.doneOrder = j.doneOrder[1:]
	}
	j.mu.Unlock()
}

// persist writes the finished record and the updated index through the
// store. Best-effort: a failed write keeps the record in memory for its
// retained lifetime.
func (j *Journal) persist(rec Record) {
	if j.store == nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err == nil {
		err = j.store.Put(recordKey(rec.JobID), payload, 0)
	}
	if err != nil {
		j.persistErrs.Add(1)
		j.logger.Warn("journal record not persisted",
			slog.String("job_id", rec.JobID), slog.String("error", err.Error()))
		return
	}
	j.mu.Lock()
	ids := j.index
	found := false
	for _, id := range ids {
		if id == rec.JobID {
			found = true
			break
		}
	}
	if !found {
		ids = append(ids, rec.JobID)
		if len(ids) > j.capacity {
			ids = append([]string(nil), ids[len(ids)-j.capacity:]...)
		}
		j.index = ids
	}
	snapshot := append([]string(nil), j.index...)
	j.mu.Unlock()
	if raw, err := json.Marshal(snapshot); err == nil {
		if err := j.store.Put(indexKey, raw, 0); err != nil {
			j.persistErrs.Add(1)
			j.logger.Warn("journal index not persisted", slog.String("error", err.Error()))
		}
	}
}

func (j *Journal) state(id string) *jobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.jobs[id]
}

// Get returns one job's record, event log included: from memory while the
// job is live or retained, falling back to the store — which is how a
// record outlives a service restart.
func (j *Journal) Get(id string) (Record, bool) {
	if j == nil {
		return Record{}, false
	}
	if st := j.state(id); st != nil {
		st.mu.Lock()
		rec := st.rec
		rec.Events = append([]Event(nil), st.events...)
		st.mu.Unlock()
		return rec, true
	}
	return j.load(id)
}

// load reads one persisted record from the store.
func (j *Journal) load(id string) (Record, bool) {
	if j.store == nil {
		return Record{}, false
	}
	raw, _, ok := j.store.Get(recordKey(id))
	if !ok {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return Record{}, false
	}
	return rec, true
}

// Query filters List. Zero fields match everything.
type Query struct {
	// Status and Engine filter exactly when non-empty.
	Status string
	Engine string
	// Since keeps records submitted at or after it.
	Since time.Time
	// Limit bounds the response (0: 100).
	Limit int
}

// List returns matching records sorted newest-submitted first, bounded by
// the query's limit. Event logs are omitted (GET the record by ID for
// those). Live jobs and persisted restarts both appear.
func (j *Journal) List(q Query) []Record {
	if j == nil {
		return nil
	}
	if q.Limit <= 0 {
		q.Limit = 100
	}
	seen := make(map[string]bool)
	var recs []Record
	j.mu.Lock()
	states := make(map[string]*jobState, len(j.jobs))
	for id, st := range j.jobs {
		states[id] = st
	}
	persisted := append([]string(nil), j.index...)
	j.mu.Unlock()
	for id, st := range states {
		st.mu.Lock()
		rec := st.rec
		st.mu.Unlock()
		rec.Events = nil
		recs = append(recs, rec)
		seen[id] = true
	}
	for _, id := range persisted {
		if seen[id] {
			continue
		}
		if rec, ok := j.load(id); ok {
			rec.Events = nil
			recs = append(recs, rec)
		}
	}
	out := recs[:0]
	for _, rec := range recs {
		if q.Status != "" && rec.Status != q.Status {
			continue
		}
		if q.Engine != "" && rec.Engine != q.Engine {
			continue
		}
		if !q.Since.IsZero() && rec.Submitted.Before(q.Since) {
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Submitted.Equal(out[b].Submitted) {
			return out[a].Submitted.After(out[b].Submitted)
		}
		return out[a].JobID > out[b].JobID
	})
	if len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// Subscription is one live (or replayed) event stream. Read C until it
// closes — the terminal event is always the last delivery of a finished
// job — and Close when done (idempotent; a finished stream needs no Close).
type Subscription struct {
	C  <-chan Event
	j  *Journal
	st *jobState
	ch chan Event
}

// Close detaches the subscriber. Safe after the journal already closed the
// channel at job completion.
func (s *Subscription) Close() {
	if s == nil || s.st == nil {
		return
	}
	s.st.mu.Lock()
	if _, ok := s.st.subs[s.ch]; ok {
		delete(s.st.subs, s.ch)
		close(s.ch)
	}
	s.st.mu.Unlock()
}

// Subscribe opens a job's event stream from just after sequence number
// after (0 replays everything retained): the retained log is replayed
// first, then live events follow until the terminal one closes the
// channel. A finished job — in memory or only in the store — yields the
// replay and an already-closed channel. Events beyond the subscriber's
// buffer are dropped and counted, never blocking the job.
func (j *Journal) Subscribe(id string, after uint64) (*Subscription, bool) {
	if j == nil {
		return nil, false
	}
	if st := j.state(id); st != nil {
		st.mu.Lock()
		defer st.mu.Unlock()
		var replay []Event
		for _, ev := range st.events {
			if ev.Seq > after {
				replay = append(replay, ev)
			}
		}
		if st.done {
			ch := make(chan Event, len(replay))
			for _, ev := range replay {
				ch <- ev
			}
			close(ch)
			return &Subscription{C: ch}, true
		}
		ch := make(chan Event, len(replay)+j.bufCap)
		for _, ev := range replay {
			ch <- ev
		}
		st.subs[ch] = struct{}{}
		return &Subscription{C: ch, j: j, st: st, ch: ch}, true
	}
	rec, ok := j.load(id)
	if !ok {
		return nil, false
	}
	var replay []Event
	for _, ev := range rec.Events {
		if ev.Seq > after {
			replay = append(replay, ev)
		}
	}
	ch := make(chan Event, len(replay))
	for _, ev := range replay {
		ch <- ev
	}
	close(ch)
	return &Subscription{C: ch}, true
}

// emitLocked stamps and delivers one event: append to the bounded retained
// log, fan out to subscribers (dropping, not blocking, on a full buffer).
// Called with st.mu held.
func (j *Journal) emitLocked(st *jobState, ev Event) {
	st.seq++
	ev.Seq = st.seq
	ev.Job = st.rec.JobID
	ev.TMS = j.now().Sub(st.rec.Submitted).Milliseconds()
	st.events = append(st.events, ev)
	if len(st.events) > j.eventCap {
		st.events = append([]Event(nil), st.events[len(st.events)-j.eventCap:]...)
	}
	for ch := range st.subs {
		select {
		case ch <- ev:
		default:
			j.dropped.Add(1)
		}
	}
}

// Stats is the journal's own observability surface.
type Stats struct {
	// Records is the in-memory record count (live + retained finished).
	Records int
	// Persisted is the durable index length.
	Persisted int
	// Subscribers counts attached live streams.
	Subscribers int
	// Dropped counts events lost to full subscriber buffers.
	Dropped uint64
	// PersistErrors counts failed store writes.
	PersistErrors uint64
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	s := Stats{Records: len(j.jobs), Persisted: len(j.index)}
	states := make([]*jobState, 0, len(j.jobs))
	for _, st := range j.jobs {
		states = append(states, st)
	}
	j.mu.Unlock()
	for _, st := range states {
		st.mu.Lock()
		s.Subscribers += len(st.subs)
		st.mu.Unlock()
	}
	s.Dropped = j.dropped.Load()
	s.PersistErrors = j.persistErrs.Load()
	return s
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
