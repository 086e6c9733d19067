// Command jobbench is the job-level benchmark of the exploration service.
// It drives an in-process serve.Server, configured as cmd/rpserved builds
// it with default flags, through its HTTP API with a load it generates
// itself, and checks every job's result against the same computation made
// by calling the layers' public functions directly.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 jobbench/run.py --workload cold|warm|restart \
//	        --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics, measured with the
// benchmark's own tracing off; with --trace 1 it prints the per-layer
// metrics of a traced run that replays the same jobs layer by layer.
// The last line of standard output is one JSON object; a human-readable
// table goes to standard error. It exits 1 when any job's result is
// wrong, and 2 when the run itself cannot be made. README.md explains the
// workloads and what each metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/store"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string // scratch directory; removed at the end
	setups   int    // least set-ups per run; setup_s is their median
	tiny     bool   // smoke-test sizes
	tamper   bool   // corrupt one expected result (the self-test of the check)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jobbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: cold, warm or restart")
	fs.Int64Var(&cfg.seed, "seed", 1, "benchmark seed: orders the jobs of each round")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds (whole rounds; at least one)")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced per-layer run; 0: end-to-end run")
	fs.StringVar(&cfg.workDir, "work-dir", ".bench_build/jobbench-work", "scratch directory, removed at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "jobbench: --trace must be 0 or 1\n")
		return 2
	}
	rep, err := run(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "jobbench: %v\n", err)
		return 2
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "jobbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// run sets the workload up, measures it, checks every result, and returns
// the report.
func run(cfg runConfig, log io.Writer) (*report, error) {
	w, err := newWorkload(cfg.workload, cfg.tiny)
	if err != nil {
		return nil, err
	}
	floor := minSetupTime
	if cfg.setups == 0 {
		cfg.setups = 3
	}
	if cfg.tiny {
		floor = 0
	}
	dir, err := filepath.Abs(cfg.workDir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dir, err = os.MkdirTemp(dir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	fmt.Fprintf(log, "jobbench: workload %s seed %d: host nproc=%d GOMAXPROCS=%d %s\n",
		w.Name, cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	// Set up from nothing at least cfg.setups times and for minSetupTime,
	// and keep the last.
	var setups []float64
	var e *env
	for i, t0 := 0, time.Now(); i < cfg.setups || time.Since(t0) < floor; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if e, err = newEnv(w, filepath.Join(dir, fmt.Sprintf("env-%d", i)), false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// The measured jobs. A traced run takes one round, so its counts repeat
	// exactly, and keeps the journal record of each job.
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d = 0
	}
	outs, wall := closedLoop(e, newSchedule(cfg.seed, len(w.Round)), d, waitEvents, cfg.trace)
	bodies := e.bodies
	if err := e.close(); err != nil {
		return nil, err
	}

	// Replay every input and job through the layers; the sweep results are
	// what every job is checked against.
	rec := newRecorder()
	st, err := store.Open(filepath.Join(dir, "replay-store"), store.Options{})
	if err != nil {
		return nil, err
	}
	want := make([]*expected, len(w.Round))
	var first *prepared
	var firstJob jobDef
	seen := map[input]bool{}
	for _, in := range w.inputs() {
		if seen[in.recipe()] {
			continue
		}
		seen[in.recipe()] = true
		p, err := prepare(in.recipe(), rec, st)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		for ji, j := range w.Round {
			if j.In.recipe() != in.recipe() {
				continue
			}
			if want[ji], err = expect(ctx, p, jobKey(ji), bodies[ji], rec); err != nil {
				return nil, fmt.Errorf("replay of job %d: %w", ji, err)
			}
			if first == nil && !j.In.Upload {
				first, firstJob = p, j
			}
		}
	}
	if first == nil {
		return nil, fmt.Errorf("workload %s has no named input to probe", w.Name)
	}
	if cfg.tamper {
		want[0].points[0].Cycles++
	}

	rep := &report{Metrics: map[string]metric{}}
	tally := func(outs []outcome) {
		for _, o := range outs {
			rep.Attempted++
			if err := check(o, want[o.Job]); err != nil {
				rep.Failed++
				if rep.Failed <= 5 {
					fmt.Fprintf(log, "jobbench: wrong result: %v\n", err)
				}
			}
		}
	}
	tally(outs)

	if !cfg.trace {
		endToEnd(rep, outs, wall, setups)
		printJobs(log, w, outs)
	} else {
		// Store reopen: the cost a restarted server pays before its first job.
		for i := 0; i < 3; i++ {
			start := time.Now()
			if st, err = store.Open(filepath.Join(dir, "replay-store"), store.Options{}); err != nil {
				return nil, err
			}
			rec.add("store.open", "replay", start, float64(st.Stats().Entries))
		}
		if err := probeLayers(ctx, first, firstJob, rec); err != nil {
			return nil, err
		}
		chunks, err := fleetProbe(ctx, first, firstJob, dir, rec)
		if err != nil {
			return nil, err
		}
		obsPct, obsOuts, err := obsOverhead(w, newSchedule(cfg.seed, len(w.Round)), dir, time.Duration(cfg.seconds*float64(time.Second)))
		if err != nil {
			return nil, err
		}
		tally(obsOuts)
		perLayer(rep, w, outs, rec, chunks, obsPct)
		if err := rec.write(filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-seed%d.json", w.Name, cfg.seed))); err != nil {
			return nil, err
		}
	}
	rep.Correct = rep.Failed == 0
	printTable(log, w.Name, rep)
	return rep, nil
}

// minSetupTime is the least time spent setting up, so a workload whose
// set-up takes milliseconds still reports the median of many.
const minSetupTime = time.Second

func jobKey(ji int) string { return fmt.Sprintf("job%d", ji) }

// obsOverhead runs the round's jobs on two set-ups, one as rpserved runs
// by default and one with per-job tracing and the journal off, alternating
// job by job until d has passed. Both arms poll for the
// terminal status, since the off arm has no event stream. It returns the
// on arm's median job time over the off arm's, in percent above 100.
func obsOverhead(w *benchWorkload, sch *schedule, dir string, d time.Duration) (float64, []outcome, error) {
	on, err := newEnv(w, filepath.Join(dir, "obs-on"), false)
	if err != nil {
		return 0, nil, err
	}
	defer on.close()
	off, err := newEnv(w, filepath.Join(dir, "obs-off"), true)
	if err != nil {
		return 0, nil, err
	}
	defer off.close()
	var onMS, offMS []float64
	var outs []outcome
	start := time.Now()
	for sch.next == 0 || time.Since(start) < d {
		arms := []*env{on, off}
		if sch.next%2 == 1 {
			arms[0], arms[1] = off, on
		}
		ji := sch.deal()
		for _, e := range arms {
			o := e.run(ji, waitPoll, false)
			outs = append(outs, o)
			ms := float64(o.Wall.Microseconds()) / 1e3
			if e == on {
				onMS = append(onMS, ms)
			} else {
				offMS = append(offMS, ms)
			}
		}
	}
	return (quantile(onMS, 0.5)/quantile(offMS, 0.5) - 1) * 100, outs, nil
}

// quantile is the nearest-rank q-quantile of xs: the smallest value with
// at least a share q of xs at or below it. Unlike interpolation it always
// reads one measured value, so a quantile that falls inside a group of
// similar jobs reads that group alone.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}
