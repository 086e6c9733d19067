package dse

import (
	"testing"
	"testing/quick"

	"repro/internal/stacks"
	"repro/internal/workload"
)

// quickPoint maps arbitrary fuzz words onto a valid latency design point
// around base: every optimizable event scaled into [0.25x, 1.75x].
func quickPoint(base stacks.Latencies, words [4]uint64) stacks.Latencies {
	l := base
	for e := stacks.Event(1); e < stacks.NumEvents; e++ {
		w := words[int(e)%len(words)] >> (uint(e) % 32)
		l = l.Scale(e, 0.25+float64(w%151)/100)
	}
	return l
}

// quickAxis picks the latency axis to raise and by how much.
func quickAxis(axis uint8, bump uint8) (stacks.Event, float64) {
	e := stacks.Event(1 + int(axis)%(int(stacks.NumEvents)-1))
	return e, float64(1 + bump%64)
}

// TestSweepMonotonicityGraphAndRpStacks is the sweep monotonicity property:
// raising any single latency axis never decreases the predicted cycle count.
// For the graph engine this holds because edge weights are non-negative
// event counts; for RpStacks because every representative stack is a
// non-negative linear function of the latencies and prediction takes maxima
// and sums of them. testing/quick drives the axis choice, the bump size and
// the surrounding design point.
func TestSweepMonotonicityGraphAndRpStacks(t *testing.T) {
	cfg, g, a, _ := prepareWorkload(t, "437.leslie3d", 21, 3000, 1)
	base := cfg.Lat

	check := func(name string, predict func(*stacks.Latencies) float64) {
		prop := func(words [4]uint64, axis, bump uint8) bool {
			lo := quickPoint(base, words)
			e, delta := quickAxis(axis, bump)
			hi := lo.With(e, lo[e]+delta)
			return predict(&hi) >= predict(&lo)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	check("graph", func(l *stacks.Latencies) float64 {
		rep, _ := ExploreGraphOpts(g, []stacks.Latencies{*l}, ExploreOptions{})
		return rep.Results[0].Cycles
	})
	check("rpstacks", func(l *stacks.Latencies) float64 {
		rep, _ := ExploreRpStacksOpts(a, []stacks.Latencies{*l}, ExploreOptions{Parallelism: 2})
		return rep.Results[0].Cycles
	})
}

// TestSweepMonotonicityBatched extends the monotonicity property to the
// batched sweep path: the lo/hi pair is evaluated as one two-point batch (and
// again split across parallel workers), so the property holds through the
// K-wide evaluators' lane arithmetic, not just the scalar path the test above
// exercises when widths collapse to one.
func TestSweepMonotonicityBatched(t *testing.T) {
	cfg, g, a, _ := prepareWorkload(t, "437.leslie3d", 23, 3000, 1)
	base := cfg.Lat

	check := func(name string, sweep func(pts []stacks.Latencies) []Result) {
		prop := func(words [4]uint64, axis, bump uint8) bool {
			lo := quickPoint(base, words)
			e, delta := quickAxis(axis, bump)
			hi := lo.With(e, lo[e]+delta)
			res := sweep([]stacks.Latencies{lo, hi})
			return res[1].Cycles >= res[0].Cycles
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	check("graph", func(pts []stacks.Latencies) []Result {
		rep, _ := ExploreGraphOpts(g, pts, ExploreOptions{BatchSize: 2})
		return rep.Results
	})
	check("rpstacks", func(pts []stacks.Latencies) []Result {
		rep, _ := ExploreRpStacksOpts(a, pts, ExploreOptions{BatchSize: 2, Parallelism: 2, ChunkSize: 1})
		return rep.Results
	})
}

// TestSweepMonotonicitySim applies the same property to the ground-truth
// engine: re-simulating with one latency axis raised never finishes earlier.
// Simulation is the expensive engine, so the property runs on a short stream
// with few samples.
func TestSweepMonotonicitySim(t *testing.T) {
	if testing.Short() {
		t.Skip("per-point re-simulation is slow")
	}
	cfg, _, _, _ := prepareWorkload(t, "437.leslie3d", 21, 1, 1)
	prof, _ := workload.ByName("437.leslie3d")
	uops := workload.Stream(prof, 21, 900)
	base := cfg.Lat

	prop := func(words [4]uint64, axis, bump uint8) bool {
		lo := quickPoint(base, words)
		e, delta := quickAxis(axis, bump)
		hi := lo.With(e, lo[e]+delta)
		rep, err := Explore(SimEngine(cfg, uops), []stacks.Latencies{lo, hi}, ExploreOptions{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Results[1].Cycles >= rep.Results[0].Cycles
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Errorf("simulator: %v", err)
	}
}
