package dse

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/stacks"
	"repro/internal/workload"
)

func space2x3() Space {
	return Space{Axes: []Axis{
		{Event: stacks.L1D, Values: []float64{2, 4}},
		{Event: stacks.FpAdd, Values: []float64{2, 4, 6}},
	}}
}

func TestSpaceEnumeration(t *testing.T) {
	sp := space2x3()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Size() != 6 {
		t.Fatalf("Size = %d", sp.Size())
	}
	base := config.Baseline().Lat
	pts := sp.Enumerate(base)
	seen := map[[2]float64]bool{}
	for _, p := range pts {
		seen[[2]float64{p[stacks.L1D], p[stacks.FpAdd]}] = true
		// Untouched events keep their baseline values.
		if p[stacks.MemD] != base[stacks.MemD] {
			t.Fatal("enumeration leaked into other events")
		}
	}
	if len(seen) != 6 {
		t.Fatalf("enumerated %d distinct points, want 6", len(seen))
	}
}

func TestSpaceValidate(t *testing.T) {
	bad := []Space{
		{},
		{Axes: []Axis{{Event: stacks.Base, Values: []float64{1}}}},
		{Axes: []Axis{{Event: stacks.L1D, Values: nil}}},
		{Axes: []Axis{{Event: stacks.L1D, Values: []float64{-2}}}},
	}
	for i, sp := range bad {
		if sp.Validate() == nil {
			t.Errorf("case %d: invalid space accepted", i)
		}
	}
}

func TestExplorersAgreeWithTheirEngines(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("444.namd")
	uops := workload.Stream(prof, 3, 4000)
	s, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run(uops)
	if err != nil {
		t.Fatal(err)
	}
	g, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(tr, &cfg.Structure, &cfg.Lat, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sp := space2x3()
	pts := sp.Enumerate(cfg.Lat)

	rp, _ := Explore(RpStacksEngine(a), pts, ExploreOptions{})
	gr, _ := Explore(GraphEngine(g), pts, ExploreOptions{})
	if len(rp.Results) != len(pts) || len(gr.Results) != len(pts) {
		t.Fatal("result counts wrong")
	}
	for i, p := range pts {
		p := p
		if rp.Results[i].Cycles != a.Predict(&p) {
			t.Fatalf("point %d: explorer disagrees with Analysis.Predict", i)
		}
		if gr.Results[i].Cycles != float64(g.LongestPath(&p)) {
			t.Fatalf("point %d: explorer disagrees with LongestPath", i)
		}
	}

	sim, err := Explore(SimEngine(cfg, uops[:1500]), pts[:2], ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Results) != 2 || sim.Results[0].Cycles <= 0 {
		t.Fatal("simulation exploration broken")
	}
}

func TestCrossoverAndTotals(t *testing.T) {
	sim := &Report{PerPoint: 100 * time.Millisecond}
	rp := &Report{Setup: time.Second, PerPoint: time.Millisecond}
	if got := rp.Total(10); got != time.Second+10*time.Millisecond {
		t.Fatalf("Total = %v", got)
	}
	// Crossover: setup / (simPP - rpPP) = 1000ms/99ms -> 11 points.
	if n := Crossover(rp, sim, 1000); n != 11 {
		t.Fatalf("crossover = %d, want 11", n)
	}
	never := &Report{Setup: time.Hour, PerPoint: time.Second}
	if n := Crossover(never, sim, 100); n != -1 {
		t.Fatalf("impossible crossover = %d, want -1", n)
	}
}

func TestBestUnder(t *testing.T) {
	rs := []Result{{Cycles: 10}, {Cycles: 20}, {Cycles: 30}}
	if got := BestUnder(rs, 20); len(got) != 2 {
		t.Fatalf("BestUnder kept %d", len(got))
	}
	if got := BestUnder(rs, 5); got != nil {
		t.Fatal("no point meets the budget")
	}
}
