// The paper's Figure 6a scenario end to end: analyze an FP-heavy workload
// once, sweep thousands of latency configurations around its bottlenecks in
// milliseconds, shortlist the design points meeting a CPI target, and
// validate the methods' predictions against re-simulation.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/stacks"
)

func main() {
	r := experiments.NewRunner(30000)
	app, err := r.App("416.gamess")
	if err != nil {
		log.Fatal(err)
	}
	base := r.Cfg.Lat
	uops := float64(len(app.Trace.Records))

	// Step 1: identify the bottlenecks of the current design point.
	bots := app.Bottlenecks(&base, 3)
	fmt.Printf("416.gamess baseline CPI %.3f; top bottlenecks: %v\n", app.Trace.CPI(), bots)

	// Step 2: sweep every integer latency combination of the bottlenecks
	// (plus the memory knob) with the single analysis.
	space := dse.Space{}
	for _, e := range bots {
		var vals []float64
		for v := 1.0; v <= base[e]; v++ {
			vals = append(vals, v)
		}
		if len(vals) > 8 {
			vals = vals[:8]
		}
		space.Axes = append(space.Axes, dse.Axis{Event: e, Values: vals})
	}
	space.Axes = append(space.Axes, dse.Axis{Event: stacks.L2D, Values: []float64{6, 9, 12}})
	points := space.Enumerate(base)
	start := time.Now()
	rep, _ := dse.Explore(dse.RpStacksEngine(app.Analysis), points, dse.ExploreOptions{})
	fmt.Printf("explored %d latency points in %v (one simulation total)\n",
		len(points), time.Since(start).Round(time.Millisecond))

	// Step 3: shortlist the points meeting the design goal.
	target := app.Trace.CPI() * 0.85
	meeting := dse.BestUnder(rep.Results, target*uops)
	fmt.Printf("%d points meet the target CPI %.3f\n", len(meeting), target)
	sort.Slice(meeting, func(i, j int) bool { return meeting[i].Cycles < meeting[j].Cycles })
	show := meeting
	if len(show) > 5 {
		show = show[:5]
	}
	for _, p := range show {
		fmt.Printf("  CPI %.3f with", p.Cycles/uops)
		for _, ax := range space.Axes {
			fmt.Printf(" %s=%.0f", ax.Event, p.Lat[ax.Event])
		}
		fmt.Println()
	}

	// Step 4: validate against the simulator and the weaker analyses.
	fmt.Println("\nvalidation on named scenarios (CPI):")
	fmt.Println("scenario            truth  RpStacks  CP1    FMT")
	for _, sc := range []struct {
		name string
		lat  stacks.Latencies
	}{
		{"bot0 halved", base.Scale(bots[0], 0.5)},
		{"bot0+bot1 halved", base.Scale(bots[0], 0.5).Scale(bots[1], 0.5)},
		{"bot0 quartered", base.Scale(bots[0], 0.25)},
	} {
		lat := sc.lat
		truth, err := r.Truth(app, &lat)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s  %.3f  %.3f     %.3f  %.3f\n", sc.name,
			truth/uops, app.Analysis.Predict(&lat)/uops,
			app.CP1.Predict(&lat)/uops, app.FMT.Predict(&lat)/uops)
	}
}
