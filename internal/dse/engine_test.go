package dse

import (
	"context"
	"encoding/hex"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/stacks"
)

// TestEngineResolver pins the wire/flag name table: each name resolves to an
// engine whose sweeps report the expected Report.Method (the fingerprint
// salt), EngineMethod agrees without inputs, and an unknown name is
// rejected by both.
func TestEngineResolver(t *testing.T) {
	cfg, uops, g, a := searchSubstrate(t, "456.hmmer", 3, 300)
	in := EngineInputs{Analysis: a, Graph: g, Cfg: cfg, UOps: uops}
	pts := []stacks.Latencies{cfg.Lat}
	want := map[string]string{"rpstacks": "rpstacks", "graph": "graph", "sim": "simulator"}
	if len(EngineNames) != len(want) {
		t.Fatalf("EngineNames = %v, want the %d names of the table", EngineNames, len(want))
	}
	for _, name := range EngineNames {
		e, err := NewEngine(name, in)
		if err != nil {
			t.Fatalf("NewEngine(%q): %v", name, err)
		}
		rep, err := Explore(e, pts, ExploreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Method != want[name] {
			t.Errorf("%s: Report.Method %q, want %q", name, rep.Method, want[name])
		}
		if m, err := EngineMethod(name); err != nil || m != want[name] {
			t.Errorf("EngineMethod(%q) = %q, %v; want %q", name, m, err, want[name])
		}
	}
	for _, bad := range []string{"", "simulator", "Graph", "oracle"} {
		if _, err := NewEngine(bad, in); err == nil {
			t.Errorf("NewEngine(%q) accepted an unknown engine", bad)
		}
		if _, err := EngineMethod(bad); err == nil {
			t.Errorf("EngineMethod(%q) accepted an unknown engine", bad)
		}
	}
}

// countingEngine is a synthetic monotone engine whose lane factory counts
// its calls: cycles are the sum of the latencies.
func countingEngine(built *atomic.Int64) *Engine {
	return &Engine{
		method: "counting",
		lanes: func(int) lane {
			built.Add(1)
			return func(lats []stacks.Latencies, out []float64) error {
				for i := range lats {
					var c float64
					for _, v := range lats[i] {
						c += v
					}
					out[i] = c
				}
				return nil
			}
		},
	}
}

// TestSearchLanesBuiltOnlyInProcess checks that a search builds its engine's
// lanes lazily: when SearchOptions.RoundEval serves every round (the fleet
// case) the lane factory is never called, and an in-process search builds
// at most one lane per worker across all of its rounds.
func TestSearchLanesBuiltOnlyInProcess(t *testing.T) {
	space := &Space{Axes: []Axis{
		{Event: stacks.L1D, Values: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
		{Event: stacks.FpAdd, Values: []float64{2, 4, 6, 8}},
	}}
	var base stacks.Latencies
	spec := &SearchSpec{Mode: SearchPareto}

	var built atomic.Int64
	e := countingEngine(&built)
	inProc, err := Search(e, base, space, spec, SearchOptions{ExploreOptions: ExploreOptions{Parallelism: 3, ChunkSize: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n < 1 || n > 3 {
		t.Fatalf("in-process search over %d rounds built %d lanes, want 1..3 (one per worker at most)", inProc.Rounds, n)
	}

	built.Store(0)
	served, err := Search(e, base, space, spec, SearchOptions{
		ExploreOptions: ExploreOptions{Parallelism: 3},
		RoundEval: func(_ context.Context, pts []stacks.Latencies) ([]float64, error) {
			out := make([]float64, len(pts))
			for i := range pts {
				for _, v := range pts[i] {
					out[i] += v
				}
			}
			return out, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n != 0 {
		t.Fatalf("RoundEval-served search built %d lanes, want 0", n)
	}
	if err := EqualAnswers(served, inProc); err != nil {
		t.Fatalf("RoundEval-served search diverged from the in-process one: %v", err)
	}
}

// compat fixtures: testdata/compat holds checkpoint chunks and probe logs
// written by the engine-specific entry points that predate Engine
// (ExploreRpStacksOpts / ExploreGraphOpts / ExploreSimOpts crashed after
// three 4-point chunks; complete pareto searches through SearchRpStacks /
// SearchGraph / SearchSim), over searchSubstrate("429.mcf", 5, 600) and
// compatSpace. They are never regenerated: resuming them is the proof that
// method salts, fingerprints and the chunk encoding are unchanged.
var compatFingerprints = map[string]struct{ sweep, search string }{
	"rpstacks": {
		sweep:  "d2e0bf1cb83edbfbc76aeb770a443cb50047c0e4a36f9c24f63a21ad4b17e763",
		search: "32d959af4e9a67422a6f5e28e2fdef1c438f52f5d591e7aec3c5ae6f3445a59b",
	},
	"graph": {
		sweep:  "e74cda1b20d2ecf4903513c66149da213645926912013b4ded35648f342f8525",
		search: "58fdd961923d5d1f070f7f728b5a7235f3254389939b2237d58f0c6d1cd314b0",
	},
	"sim": {
		sweep:  "22a740c398e19bcf9b2288d45e566a5fd4e95ed47e3bf10f2b8e5ba8a6f68821",
		search: "76fd8f73f5a774708fb35631c8e5caf10c2b62ffd59c580f9586483c585b5d22",
	},
}

func compatSpace() *Space {
	return &Space{Axes: []Axis{
		{Event: stacks.L1D, Values: []float64{1, 2, 3, 4}},
		{Event: stacks.FpAdd, Values: []float64{2, 4, 6}},
		{Event: stacks.MemD, Values: []float64{66, 133}},
	}}
}

// copyFixture copies testdata/compat/<name> into a fresh temp dir, so a
// resume (which may delete or add files) never touches the fixture.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", "compat", name)
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	for _, de := range des {
		raw, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCompatCheckpointAndProbeLogResume resumes the pre-Engine fixtures
// through the Engine entry points: each sweep checkpoint restores its 12
// points under the recorded fingerprint and completes to the scalar
// evaluators' cycles, and each probe log replays the whole search without
// a new probe, returning the answer a fresh search computes.
func TestCompatCheckpointAndProbeLogResume(t *testing.T) {
	const n = 600
	cfg, uops, g, a := searchSubstrate(t, "429.mcf", 5, n)
	space := compatSpace()
	pts := space.Enumerate(cfg.Lat)
	spec := &SearchSpec{Mode: SearchPareto}
	for _, name := range EngineNames {
		t.Run(name, func(t *testing.T) {
			e, err := NewEngine(name, EngineInputs{Analysis: a, Graph: g, Cfg: cfg, UOps: uops})
			if err != nil {
				t.Fatal(err)
			}
			want := compatFingerprints[name]

			rep, err := Explore(e, pts, ExploreOptions{Parallelism: 2, Checkpoint: &Checkpoint{Dir: copyFixture(t, name+"-sweep")}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Resumed != 12 {
				t.Fatalf("sweep resumed %d points from the fixture, want 12", rep.Resumed)
			}
			if got := hex.EncodeToString(rep.Fingerprint); got != want.sweep {
				t.Fatalf("sweep fingerprint %s, want %s", got, want.sweep)
			}
			sameResults(t, name+" fixture resume vs scalar evaluator", scalarTruth(t, name, cfg, uops, g, a, pts), rep.Results)

			opts := SearchOptions{MicroOps: n}
			fresh, err := Search(e, cfg.Lat, space, spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Checkpoint = &Checkpoint{Dir: copyFixture(t, name+"-probes")}
			res, err := Search(e, cfg.Lat, space, spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Probes != 0 || res.ResumedProbes != fresh.Probes {
				t.Fatalf("probe log replay: %d new probes, %d resumed; want 0 new, %d resumed", res.Probes, res.ResumedProbes, fresh.Probes)
			}
			if got := hex.EncodeToString(res.Fingerprint); got != want.search {
				t.Fatalf("search fingerprint %s, want %s", got, want.search)
			}
			if err := EqualAnswers(res, fresh); err != nil {
				t.Fatalf("replayed search diverged from a fresh one: %v", err)
			}
		})
	}
}
