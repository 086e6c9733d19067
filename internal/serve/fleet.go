package serve

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/stacks"
)

// fleet.go — the coordinator face of the sweep fleet. With Config.FleetStore
// set, the server mounts the /fleet/v1/ lease protocol and routes eligible
// sweeps through rpworker processes instead of its own goroutines; the
// assembled Report flows into ranking, auditing and metrics exactly like a
// local sweep's.
//
// Eligibility is identity-driven: a worker rebuilds the engine inputs from
// (workload, seed, µops) under the *baseline* machine and *default* analysis
// options, so only a server running that same setup may delegate — and
// uploaded traces, which have no regeneration recipe, always run locally.
// The sweep fingerprint then proves the match bit-for-bit on every worker.

// fleetDefaultsMatch reports whether this server's machine setup is the one
// fleet workers deterministically rebuild: the baseline configuration and
// the default RpStacks analysis options.
func fleetDefaultsMatch(cfg *config.Config, opts core.Options) bool {
	cj, err1 := json.Marshal(cfg)
	bj, err2 := json.Marshal(config.Baseline())
	return err1 == nil && err2 == nil && string(cj) == string(bj) &&
		opts == core.DefaultOptions()
}

// fleetSweep runs the job's sweep through the fleet coordinator: compute the
// sweep identity fingerprint from the engine inputs already in hand, hand
// the recipe (not the data) to the coordinator, and block until the workers'
// published chunks assemble into the Report.
// explicit marks point lists that are not the space's enumeration (a guided
// search's probe round); the coordinator then ships them to workers.
func (s *Server) fleetSweep(ctx context.Context, job *Job, eng *dse.Engine, points []stacks.Latencies,
	setupWall time.Duration, explicit bool) (*dse.Report, error) {
	spec := job.Spec
	fp, err := dse.SweepFingerprint(eng, points)
	if err != nil {
		return nil, err
	}
	sweepID := hex.EncodeToString(fp)
	s.trackFleetSweep(sweepID, job.ID)
	defer s.untrackFleetSweep(sweepID, job.ID)
	rep, err := s.fleet.Run(ctx, fleet.Sweep{
		Spec: fleet.SweepSpec{
			Workload:  spec.Workload,
			Seed:      spec.Seed,
			MicroOps:  spec.MicroOps,
			Engine:    spec.Engine,
			Axes:      fleet.FormatAxes(spec.Space.Axes),
			BatchSize: spec.BatchSize,
		},
		Points:      points,
		Fingerprint: fp,
		ChunkSize:   s.cfg.FleetChunkSize,
		Explicit:    explicit,
		Setup:       setupWall,
		Tracer:      job.tracer,
		TraceParent: job.root.ID(),
	})
	if err != nil {
		return nil, err
	}
	// Pull the worker trace fragments the coordinator retained for this sweep
	// onto the job: GET /debug/trace then serves the merged fleet timeline. A
	// search job accumulates one batch per probe round (each round is its own
	// sweep fingerprint).
	job.addFleetFragments(s.fleet.TraceFragments(hex.EncodeToString(fp)))
	return rep, nil
}

// trackFleetSweep maps an active sweep's ID onto the job that delegated it,
// so coordinator lease events route into the job's journal stream. Two jobs
// attaching to one identical sweep (same fingerprint) is legal: the last
// registration wins, which keeps the events on a live job.
func (s *Server) trackFleetSweep(sweepID, jobID string) {
	s.fleetJobsMu.Lock()
	s.fleetJobs[sweepID] = jobID
	s.fleetJobsMu.Unlock()
}

// untrackFleetSweep drops the mapping, unless a later registration of the
// same sweep (an attached duplicate job) took it over.
func (s *Server) untrackFleetSweep(sweepID, jobID string) {
	s.fleetJobsMu.Lock()
	if s.fleetJobs[sweepID] == jobID {
		delete(s.fleetJobs, sweepID)
	}
	s.fleetJobsMu.Unlock()
}

// fleetJob resolves a sweep ID to its delegating job ("" when untracked).
func (s *Server) fleetJob(sweepID string) string {
	s.fleetJobsMu.Lock()
	defer s.fleetJobsMu.Unlock()
	return s.fleetJobs[sweepID]
}
