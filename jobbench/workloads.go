package main

import (
	"fmt"
	"math/rand"
)

// input is one trace a job sweeps: a named workload recipe the server
// simulates itself, or the same recipe's trace simulated by the benchmark
// and uploaded as trace_b64.
type input struct {
	App      string
	MicroOps int
	Seed     int64 // workload generator seed
	Upload   bool
}

func (in input) String() string {
	s := fmt.Sprintf("%s/%d/s%d", in.App, in.MicroOps, in.Seed)
	if in.Upload {
		s += "/upload"
	}
	return s
}

// jobDef is one job of a workload's mix.
type jobDef struct {
	In            input
	Engine        string // rpstacks or graph
	Axes          []string
	Top           int
	Search        string  // guided-search spec; empty for an exhaustive sweep
	AuditFraction float64 // shadow-audit share of the grid; named inputs only
	AuditSeed     uint64
}

// kind is how a workload drives the server, which decides the cache tier
// its jobs meet.
type kind int

const (
	kindCold    kind = iota // a fresh server over an empty store per job: every tier misses
	kindWarm                // one server, every trace analysed during set-up: memory hits
	kindRestart             // a fresh server over a filled store per job: disk hits
)

// benchWorkload is one traffic mix.
type benchWorkload struct {
	Name  string
	Kind  kind
	Round []jobDef // one round of the mix; runs issue whole rounds
}

// Grids. grid8, grid36 and grid72 are small sweeps whose cost is
// dominated by whatever precedes the sweep; grid131k makes the RpStacks
// per-point predictor the dominant cost of a warm job.
var (
	grid8    = []string{"L1D=1,2,3,4", "L2D=6,12"}
	grid36   = []string{"L1D=1,2,3,4", "L2D=6,12,18", "FpMul=2,4,6"}
	grid72   = []string{"L1D=1,2,3,4", "L2D=6,12,18", "MemD=66,100,133,166,200,233"}
	grid131k = []string{
		"L1D=1,2,3,4,5,6,7,8",
		"L2D=6,8,10,12,14,16,18,20",
		"MemD=66,80,100,120,133,150,175,200",
		"FpAdd=2,4,6,8",
		"FpMul=2,4,6,8",
		"IntMul=1,2,3,4",
	}
	tinyGrid = grid8
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"cold", "warm", "restart"}

// newWorkload returns the named workload. tiny shrinks every trace and
// grid to smoke-test size; the mix and the code paths stay the same.
//
// Generator seeds come from a fixed pool per workload rather than from the
// benchmark seed: analysis cost varies up to 3x between generator seeds of
// one application (416.gamess at 20k µops takes 1.2 s with seed 0 and
// 3.4 s with seed 2), and a run short enough for the time budget cannot
// average that out. The benchmark seed instead orders each round's jobs.
func newWorkload(name string, tiny bool) (*benchWorkload, error) {
	n := func(full int) int {
		if tiny {
			return 400
		}
		return full
	}
	g := func(full []string) []string {
		if tiny {
			return tinyGrid
		}
		return full
	}
	named := func(app string, uops int, seed int64) input {
		return input{App: app, MicroOps: n(uops), Seed: seed}
	}
	upload := func(app string, uops int, seed int64) input {
		in := named(app, uops, seed)
		in.Upload = true
		return in
	}
	rp := func(in input, axes []string) jobDef {
		return jobDef{In: in, Engine: "rpstacks", Axes: g(axes), Top: 10}
	}
	graph := func(in input, axes []string) jobDef {
		return jobDef{In: in, Engine: "graph", Axes: g(axes), Top: 10}
	}
	// audited asks for ~points audited design points: audit.Sample takes
	// ceil(fraction × grid).
	audited := func(j jobDef, points int, seed uint64) jobDef {
		j.AuditFraction = (float64(points) - 0.5) / float64(gridSize(j.Axes))
		j.AuditSeed = seed
		return j
	}

	// Each mix is sized so that the reported quantiles fall inside a group
	// of similar jobs, never on the edge between two groups: a quantile on
	// an edge reads the extremes of both groups and wanders from run to run.
	switch name {
	case "cold":
		// Every job misses both tiers, so core.Analyze dominates; the
		// only workload that writes the store. A round takes about 8 s, so
		// a run holds two. By latency: mcf (20%), the three gamess jobs
		// (20-80%, holding p50), lbm (80-100%, holding p90).
		gm := named("416.gamess", 20000, 0)
		round := []jobDef{
			audited(rp(named("429.mcf", 20000, 0), grid36), 4, 1),
			audited(rp(gm, grid36), 4, 1),
			audited(rp(gm, grid36), 4, 2),
			rp(upload("416.gamess", 20000, 0), grid36),
			audited(rp(named("470.lbm", 6000, 1), grid36), 4, 1),
		}
		return &benchWorkload{Name: name, Kind: kindCold, Round: round}, nil

	case "warm":
		// Jobs pay no analysis: sweeps, guided search, audit and the
		// serving path decide latency. By latency: graph sweeps over 8
		// points (20%), the 131k-point rpstacks sweeps and the gamess
		// searches (20-80%, holding p50), the audited sweeps (80-100%,
		// holding p90).
		gm, mc := named("416.gamess", 10000, 0), named("429.mcf", 20000, 0)
		search := jobDef{In: gm, Engine: "rpstacks", Axes: g(grid131k), Top: 10, Search: "halving"}
		round := []jobDef{
			graph(gm, grid8), graph(mc, grid8),
			rp(gm, grid131k), rp(mc, grid131k), rp(gm, grid131k), rp(mc, grid131k), search, search,
			audited(rp(mc, grid72), 4, 7), audited(rp(mc, grid72), 4, 8),
		}
		return &benchWorkload{Name: name, Kind: kindWarm, Round: round}, nil

	case "restart":
		// The memory tier is empty and the disk tier full: store reads,
		// trace and analysis decode, µop regeneration and the graph
		// rebuild. By latency: the upload (25%), the named jobs (25-75%,
		// holding p50), the audited one (75-100%, holding p90).
		mc := named("429.mcf", 20000, 0)
		round := []jobDef{
			rp(upload("416.gamess", 20000, 0), grid36),
			rp(mc, grid36), rp(mc, grid36),
			audited(rp(mc, grid36), 2, 3),
		}
		return &benchWorkload{Name: name, Kind: kindRestart, Round: round}, nil

	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// gridSize is the number of design points of the textual axes.
func gridSize(axes []string) int {
	n := 1
	for _, ax := range axes {
		n *= axisLen(ax)
	}
	return n
}

// axisLen counts the values of a textual axis "EV=v1,v2,...".
func axisLen(ax string) int {
	n := 1
	for _, c := range ax {
		if c == ',' {
			n++
		}
	}
	return n
}

// schedule deals a workload's round jobs, each round in a fresh order
// drawn from the benchmark seed.
type schedule struct {
	rng   *rand.Rand
	order []int
	next  int // jobs dealt so far
}

func newSchedule(seed int64, roundLen int) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed)), order: make([]int, roundLen)}
}

// atRoundStart reports whether the next job starts a round.
func (s *schedule) atRoundStart() bool { return s.next%len(s.order) == 0 }

// deal returns the next job's index into the round.
func (s *schedule) deal() int {
	if s.atRoundStart() {
		s.order = s.rng.Perm(len(s.order))
	}
	ji := s.order[s.next%len(s.order)]
	s.next++
	return ji
}

// recipe is the named input that generates in's trace: an upload carries
// the trace its named twin simulates.
func (in input) recipe() input {
	in.Upload = false
	return in
}

// inputs lists the distinct inputs of the round, first use first.
func (w *benchWorkload) inputs() []input {
	var out []input
	seen := map[input]bool{}
	for _, j := range w.Round {
		if !seen[j.In] {
			seen[j.In] = true
			out = append(out, j.In)
		}
	}
	return out
}
