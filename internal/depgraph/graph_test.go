package depgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/stacks"
	"repro/internal/trace"
	"repro/internal/workload"
)

func simTrace(t *testing.T, cfg *config.Config, uops []isa.MicroOp) *trace.Trace {
	t.Helper()
	s, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run(uops)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func hasEdge(g *Graph, to NodeID, fromIdx int, fromStage Stage) bool {
	for _, e := range g.In(to) {
		if e.From == g.Node(fromIdx, fromStage) {
			return true
		}
	}
	return false
}

func edgeWeight(g *Graph, to NodeID, fromIdx int, fromStage Stage) (Weight, bool) {
	for _, e := range g.In(to) {
		if e.From == g.Node(fromIdx, fromStage) {
			return e.W, true
		}
	}
	return Weight{}, false
}

// TestTableIConstraints builds a graph from a small simulated trace and
// verifies the presence and event attribution of each constraint family of
// Table I.
func TestTableIConstraints(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("437.leslie3d")
	uops := workload.Stream(prof, 5, 3000)
	tr := simTrace(t, cfg, uops)
	g, err := Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	st := &cfg.Structure

	checked := map[string]bool{}
	for i := 32; i < len(tr.Records); i++ {
		r := &tr.Records[i]
		// In-order fetch: F_i <- I$_{i-1}.
		if !hasEdge(g, g.Node(i, NF), i-1, NIC) {
			t.Fatalf("µop %d missing in-order fetch edge", i)
		}
		// Finite fetch bandwidth: F_i <- I$_{i-fbw}.
		if !hasEdge(g, g.Node(i, NF), i-st.FetchWidth, NIC) {
			t.Fatalf("µop %d missing fetch bandwidth edge", i)
		}
		// Finite fetch buffer: F_i <- N_{i-fbs}.
		if !hasEdge(g, g.Node(i, NF), i-st.FetchBufSize, NN) {
			t.Fatalf("µop %d missing fetch buffer edge", i)
		}
		// Control dependency after a mispredicted branch.
		if tr.Records[i-1].Mispredicted {
			w, ok := edgeWeight(g, g.Node(i, NF), i-1, NP)
			if !ok || w[0].Ev != stacks.Branch {
				t.Fatalf("µop %d missing branch redirect edge", i)
			}
			checked["mispredict"] = true
		}
		// In-order rename + rename bandwidth + finite ROB.
		if !hasEdge(g, g.Node(i, NN), i-1, NN) ||
			!hasEdge(g, g.Node(i, NN), i-st.RenameWidth, NN) {
			t.Fatalf("µop %d missing rename edges", i)
		}
		if i >= st.ROBSize && !hasEdge(g, g.Node(i, NN), i-st.ROBSize, NC) {
			t.Fatalf("µop %d missing reorder-buffer edge", i)
		}
		// Dispatch after rename, in order, width-limited.
		if !hasEdge(g, g.Node(i, ND), i, NN) ||
			!hasEdge(g, g.Node(i, ND), i-1, ND) ||
			!hasEdge(g, g.Node(i, ND), i-st.DispatchWidth, ND) {
			t.Fatalf("µop %d missing dispatch edges", i)
		}
		// Issue dependency.
		if r.IQFreeBy != trace.None {
			if !hasEdge(g, g.Node(i, ND), int(r.IQFreeBy), NE) {
				t.Fatalf("µop %d missing issue-dependency edge", i)
			}
			checked["iq"] = true
		}
		// Data dependencies.
		if !r.Class.IsMem() && r.SrcDep1 != trace.None {
			if !hasEdge(g, g.Node(i, NR), int(r.SrcDep1), NP) {
				t.Fatalf("µop %d missing data dependency edge", i)
			}
			checked["data"] = true
		}
		if r.Class.IsMem() {
			// Address pipeline folded into D->R with Agu attribution.
			w, ok := edgeWeight(g, g.Node(i, NR), i, ND)
			if !ok {
				t.Fatalf("mem µop %d missing ready edge", i)
			}
			found := false
			for _, p := range w {
				if p.N > 0 && p.Ev == stacks.Agu {
					found = true
				}
			}
			if !found {
				t.Fatalf("mem µop %d ready edge lacks Agu attribution", i)
			}
			if r.AddrDep != trace.None && !hasEdge(g, g.Node(i, NR), int(r.AddrDep), NP) {
				t.Fatalf("mem µop %d missing address dependency edge", i)
			}
			checked["mem"] = true
		}
		// Execute after ready.
		if !hasEdge(g, g.Node(i, NE), i, NR) {
			t.Fatalf("µop %d missing execute edge", i)
		}
		// Cache line sharing.
		if r.ShareWith != trace.None {
			if !hasEdge(g, g.Node(i, NP), int(r.ShareWith), NP) {
				t.Fatalf("µop %d missing line sharing edge", i)
			}
			checked["share"] = true
		}
		// Commit: completion, in order, width.
		if !hasEdge(g, g.Node(i, NC), i, NP) ||
			!hasEdge(g, g.Node(i, NC), i-1, NC) ||
			!hasEdge(g, g.Node(i, NC), i-st.CommitWidth, NC) {
			t.Fatalf("µop %d missing commit edges", i)
		}
		// µop dependency: SoM commit waits for the macro's later µops.
		if r.SoM && !r.EoM {
			if !hasEdge(g, g.Node(i, NC), i+1, NP) {
				t.Fatalf("SoM µop %d missing macro-atomicity edge", i)
			}
			checked["macro"] = true
		}
	}
	for _, k := range []string{"mispredict", "data", "mem", "macro"} {
		if !checked[k] {
			t.Errorf("constraint family %q never exercised by the trace", k)
		}
	}
}

// TestHiddenPenalty reproduces Figure 1a: optimizing the exposed bottleneck
// reveals the penalty hidden beneath it, so the gain is smaller than the
// optimized amount.
func TestHiddenPenalty(t *testing.T) {
	cfg := config.Baseline()
	// A memory-missing load chain overlapping an FpDiv chain (120 cycles
	// per iteration vs 133+ for the loads).
	var uops []isa.MicroOp
	seq := uint64(0)
	add := func(u isa.MicroOp) {
		u.Seq = seq
		u.MacroSeq = seq
		u.SoM, u.EoM = true, true
		u.PC = 0x400000
		seq++
		uops = append(uops, u)
	}
	addr := uint64(0x4000_0000)
	for i := 0; i < 40; i++ {
		add(isa.MicroOp{Class: isa.Load, Dest: 2, Src1: 2, Src2: isa.RegNone, Addr: addr})
		addr += 1 << 16
		for j := 0; j < 5; j++ {
			add(isa.MicroOp{Class: isa.FpDiv, Dest: isa.NumIntRegs, Src1: isa.NumIntRegs, Src2: isa.RegNone})
		}
	}
	tr := simTrace(t, cfg, uops)
	g, err := Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	base := g.LongestPath(&cfg.Lat)
	// Optimize the exposed memory bottleneck to one cycle.
	opt := cfg.Lat.With(stacks.MemD, 1)
	after := g.LongestPath(&opt)
	// The FP chain (~40*120 cycles) now binds: the saving must be far less
	// than the naive 132-cycles-per-load estimate.
	naive := base - int64(40*132)
	if after <= naive {
		t.Fatalf("no hidden penalty: base=%d after=%d naive=%d", base, after, naive)
	}
	if after < int64(40*5*24) {
		t.Fatalf("optimized path %d shorter than the FP chain itself", after)
	}
}

// TestLatencyMonotonicity: raising any single event latency can never
// shorten the critical path.
func TestLatencyMonotonicity(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("450.soplex")
	uops := workload.Stream(prof, 8, 2000)
	tr := simTrace(t, cfg, uops)
	g, err := Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		e := stacks.Event(1 + rng.Intn(int(stacks.NumEvents)-1))
		l1 := cfg.Lat
		l2 := l1.With(e, l1[e]+float64(1+rng.Intn(50)))
		return g.LongestPath(&l2) >= g.LongestPath(&l1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowErrors checks Build's input validation.
func TestWindowErrors(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("456.hmmer")
	uops := workload.Stream(prof, 2, 500)
	tr := simTrace(t, cfg, uops)
	if _, err := Build(tr, &cfg.Structure, -1, 10); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := Build(tr, &cfg.Structure, 10, 5); err == nil {
		t.Fatal("inverted window accepted")
	}
	if _, err := Build(tr, &cfg.Structure, 0, len(tr.Records)+1); err == nil {
		t.Fatal("overlong window accepted")
	}
	// A window starting mid-macro-op must be rejected.
	mid := 1
	for mid < len(tr.Records) && tr.Records[mid].SoM {
		mid++
	}
	if mid < len(tr.Records) {
		if _, err := Build(tr, &cfg.Structure, mid, len(tr.Records)); err == nil {
			t.Fatal("mid-macro window accepted")
		}
	}
}

// TestNodeRoundTrip checks the NodeID encoding.
func TestNodeRoundTrip(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("456.hmmer")
	uops := workload.Stream(prof, 2, 200)
	tr := simTrace(t, cfg, uops)
	g, err := Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, g.NumNodes())
	for i := range tr.Records {
		for s := Stage(0); s < NumStages; s++ {
			n := g.Node(i, s)
			if int(n) >= len(seen) || seen[n] {
				t.Fatalf("node (%d,%s) = %d is out of range or taken", i, s, n)
			}
			seen[n] = true
		}
	}
	if g.NumNodes() != len(tr.Records)*int(NumStages) {
		t.Fatal("node count wrong")
	}
}

// TestSegmentWindowMatchesFull: a window build on [k, n) is a valid graph
// whose longest path is no longer than the full graph's.
func TestSegmentWindowMatchesFull(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("444.namd")
	uops := workload.Stream(prof, 6, 2000)
	tr := simTrace(t, cfg, uops)
	full, err := Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	k := 800
	for !tr.Records[k].SoM {
		k++
	}
	win, err := Build(tr, &cfg.Structure, k, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	if win.LongestPath(&cfg.Lat) > full.LongestPath(&cfg.Lat) {
		t.Fatal("suffix window longer than the full graph")
	}
}

// TestWeightAccumulation checks the multi-event edge weight helper.
func TestWeightAccumulation(t *testing.T) {
	var w Weight
	w.add(stacks.Base, 2)
	w.add(stacks.Agu, 1)
	w.add(stacks.Base, 1)
	l := config.Baseline().Lat
	if got := w.Cycles(&l); got != 3+2 {
		t.Fatalf("weight cycles = %d, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("four distinct events must panic")
		}
	}()
	w.add(stacks.DTLB, 1)
	w.add(stacks.L1D, 1)
}
