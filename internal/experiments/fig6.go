package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/dse"
	"repro/internal/stacks"
	"repro/internal/stats"
)

// Fig6Scenario is one named latency-optimization design point with the
// three methods' predictions and the re-simulated truth.
type Fig6Scenario struct {
	Name     string
	Lat      stacks.Latencies
	TruthCPI float64
	RpCPI    float64
	Cp1CPI   float64
	FmtCPI   float64
}

// Err returns the three methods' CPI error in percent.
func (s *Fig6Scenario) Err() (rp, cp, fm float64) {
	return stats.AbsPctErr(s.RpCPI, s.TruthCPI),
		stats.AbsPctErr(s.Cp1CPI, s.TruthCPI),
		stats.AbsPctErr(s.FmtCPI, s.TruthCPI)
}

// Fig6Result reproduces Figure 6a/6b: the exploration scenario of one
// workload — sweep a latency space around the bottlenecks with RpStacks,
// count the design points meeting the target CPI, and validate the
// predictions of RpStacks, CP1 and FMT on named optimization scenarios.
type Fig6Result struct {
	App        string
	Space      int // latency points covered by the single analysis
	TargetCPI  float64
	MeetTarget int
	SweepTime  time.Duration // sharded sweep wall-clock
	SerialTime time.Duration // the same sweep, one worker
	Workers    int
	ParSpeedup float64 // SerialTime / SweepTime
	Scenarios  []Fig6Scenario
	Stacks     struct {
		RpStacks stacks.Stack // baseline decomposition per method
		CP1      stacks.Stack
		FMT      stacks.Stack
	}
}

// fig6Space builds the exploration space over the workload's top bottleneck
// events: every integer latency from 1 to the baseline for cheap events,
// and a coarse grid for memory-like events — over 2500 points, as in the
// paper's scenario.
func fig6Space(base stacks.Latencies, bots []stacks.Event) dse.Space {
	var sp dse.Space
	for _, e := range bots {
		b := base[e]
		var vals []float64
		switch {
		case b <= 8:
			for v := 1.0; v <= b; v++ {
				vals = append(vals, v)
			}
		case b <= 32:
			for v := b / 4; v <= b; v += b / 8 {
				vals = append(vals, float64(int(v)))
			}
		default:
			for _, f := range []float64{0.25, 0.5, 0.75, 1} {
				vals = append(vals, float64(int(b*f)))
			}
		}
		sp.Axes = append(sp.Axes, dse.Axis{Event: e, Values: vals})
	}
	return sp
}

// Fig6 runs the exploration scenario for one workload. The paper's panels
// use 416.gamess (6a) and 437.leslie3d (6b).
func (r *Runner) Fig6(name string) (*Fig6Result, error) {
	a, err := r.App(name)
	if err != nil {
		return nil, err
	}
	base := r.Cfg.Lat
	bots := a.Bottlenecks(&base, 4)
	sp := fig6Space(base, bots)
	points := sp.Enumerate(base)

	res := &Fig6Result{App: name, Space: len(points)}
	res.Stacks.RpStacks = a.Analysis.Representative(&base)
	_, cpStack := a.Graph.CriticalPath(&base)
	res.Stacks.CP1 = cpStack
	res.Stacks.FMT = a.FMT.Stack()

	// Sweep the whole space with RpStacks — sharded over the runner's
	// worker count, with a serial reference sweep for the speedup column —
	// and count points meeting the design goal (here: 10% CPI improvement
	// over baseline).
	res.TargetCPI = a.Trace.CPI() * 0.9
	serial, _ := dse.Explore(dse.RpStacksEngine(a.Analysis), points, dse.ExploreOptions{})
	rep, _ := dse.Explore(dse.RpStacksEngine(a.Analysis), points, dse.ExploreOptions{Parallelism: r.Parallelism})
	res.SweepTime = rep.Wall
	res.SerialTime = serial.Wall
	res.Workers = len(rep.Workers)
	if rep.Wall > 0 {
		res.ParSpeedup = float64(serial.Wall) / float64(rep.Wall)
	}
	n := float64(len(a.Trace.Records))
	for _, p := range rep.Results {
		if p.Cycles/n <= res.TargetCPI {
			res.MeetTarget++
		}
	}

	// Validation scenarios: halve each top bottleneck alone, pairs of the
	// top two, and an aggressive joint optimization.
	type sc struct {
		name  string
		scale map[stacks.Event]float64
	}
	var scs []sc
	for _, e := range bots[:min(2, len(bots))] {
		scs = append(scs, sc{fmt.Sprintf("%s/2", e), map[stacks.Event]float64{e: 0.5}})
		scs = append(scs, sc{fmt.Sprintf("%s/4", e), map[stacks.Event]float64{e: 0.25}})
	}
	if len(bots) >= 2 {
		scs = append(scs, sc{fmt.Sprintf("%s/2+%s/2", bots[0], bots[1]),
			map[stacks.Event]float64{bots[0]: 0.5, bots[1]: 0.5}})
		scs = append(scs, sc{fmt.Sprintf("%s/4+%s/4", bots[0], bots[1]),
			map[stacks.Event]float64{bots[0]: 0.25, bots[1]: 0.25}})
	}
	for _, s := range scs {
		l := base
		for e, f := range s.scale {
			l = l.Scale(e, f)
		}
		truth, err := r.Truth(a, &l)
		if err != nil {
			return nil, err
		}
		res.Scenarios = append(res.Scenarios, Fig6Scenario{
			Name:     s.name,
			Lat:      l,
			TruthCPI: truth / n,
			RpCPI:    a.Analysis.Predict(&l) / n,
			Cp1CPI:   a.CP1.Predict(&l) / n,
			FmtCPI:   a.FMT.Predict(&l) / n,
		})
	}
	return res, nil
}

// String renders the panel.
func (f *Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 scenario: %s\n\n", f.App)
	fmt.Fprintf(&b, "single analysis covered %d latency points in %v (%d workers, %.2fx vs serial); %d meet target CPI %.3f\n\n",
		f.Space, f.SweepTime.Round(time.Millisecond), f.Workers, f.ParSpeedup, f.MeetTarget, f.TargetCPI)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\ttruth CPI\tRpStacks\tCP1\tFMT\terr Rp/CP1/FMT %")
	for i := range f.Scenarios {
		s := &f.Scenarios[i]
		rp, cp, fm := s.Err()
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.1f/%.1f/%.1f\n",
			s.Name, s.TruthCPI, s.RpCPI, s.Cp1CPI, s.FmtCPI, rp, cp, fm)
	}
	w.Flush()
	return b.String()
}

// Fig6cRow is one exploration strategy's coverage within a fixed budget.
type Fig6cRow struct {
	Strategy string
	Points   int
	Note     string
}

// Fig6cResult reproduces Figure 6c: how many design points each strategy
// covers within the budget it takes the simulator to explore a small
// insight-driven set.
type Fig6cResult struct {
	App    string
	Budget time.Duration
	Rows   []Fig6cRow
}

// Fig6c compares exploration coverage under a fixed time budget.
func (r *Runner) Fig6c(name string, budgetPoints int) (*Fig6cResult, error) {
	a, err := r.App(name)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(budgetPoints) * a.SimTime
	res := &Fig6cResult{App: name, Budget: budget}

	res.Rows = append(res.Rows, Fig6cRow{
		Strategy: "exhaustive simulation",
		Points:   budgetPoints,
		Note:     "every point re-simulated",
	})
	res.Rows = append(res.Rows, Fig6cRow{
		Strategy: "insight-driven simulation",
		Points:   budgetPoints,
		Note:     "same cost per point; heuristic selection may miss optima",
	})
	// RpStacks: one simulation + analysis, then near-free predictions. The
	// sharded sweep's effective per-point rate (wall / points) is what the
	// budget buys on this host; the engine records its own setup cost.
	points := fig13Space(r.Cfg.Lat)
	rp, _ := dse.Explore(dse.RpStacksEngine(a.Analysis), points,
		dse.ExploreOptions{Parallelism: r.Parallelism, Setup: a.SimTime + a.AnalyzeTime})
	covered := 0
	if budget > rp.Setup && rp.PerPoint > 0 {
		covered = int((budget - rp.Setup) / rp.PerPoint)
	}
	res.Rows = append(res.Rows, Fig6cRow{
		Strategy: "RpStacks",
		Points:   covered,
		Note:     "one simulation covers all latency points of the structure",
	})
	return res, nil
}

// String renders the coverage table.
func (f *Fig6cResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6c: exploration coverage within %v (%s)\n\n", f.Budget.Round(time.Millisecond), f.App)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\tlatency points covered\tnote")
	for _, row := range f.Rows {
		fmt.Fprintf(w, "%s\t%d\t%s\n", row.Strategy, row.Points, row.Note)
	}
	w.Flush()
	return b.String()
}
