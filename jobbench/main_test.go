package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// tinyRun runs one workload at smoke-test size for exactly one round.
func tinyRun(t *testing.T, workload string, traced, tamper bool) *report {
	t.Helper()
	rep, err := run(runConfig{
		workload: workload,
		seed:     3,
		trace:    traced,
		workDir:  t.TempDir(),
		setups:   1,
		tiny:     true,
		tamper:   tamper,
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			rep := tinyRun(t, name, false, false)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			for _, m := range []string{"job_ms_p50", "job_ms_p90", "jobs_per_s", "kuops_per_s",
				"peak_rss_mb", "audit_max_err_pct", "setup_s"} {
				if v, ok := rep.Metrics[m]; !ok || v.Value <= 0 {
					t.Errorf("metric %s = %+v, want a positive value", m, v)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			rep := tinyRun(t, name, true, false)
			if !rep.Correct {
				t.Fatalf("%d of %d failed", rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != 31 {
				t.Errorf("%d per-layer metrics, want 31", len(rep.Metrics))
			}
			// Each workload must meet the cache tier it claims.
			mem, disk, builds := rep.Metrics["cache.mem_hits"].Value,
				rep.Metrics["cache.disk_hits"].Value, rep.Metrics["cache.builds"].Value
			switch name {
			case "cold":
				if mem != 0 || disk != 0 || builds == 0 {
					t.Errorf("cold: mem %g disk %g builds %g, want builds only", mem, disk, builds)
				}
			case "warm":
				if disk != 0 || builds != 0 || mem == 0 {
					t.Errorf("warm: mem %g disk %g builds %g, want memory hits only", mem, disk, builds)
				}
			case "restart":
				if mem != 0 || builds != 0 || disk == 0 {
					t.Errorf("restart: mem %g disk %g builds %g, want disk hits only", mem, disk, builds)
				}
			}
		})
	}
}

// TestTamperedExpectationFails proves the check has teeth: one changed
// expected value must fail the run and its exit code.
func TestTamperedExpectationFails(t *testing.T) {
	rep := tinyRun(t, "warm", false, true)
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("a tampered expectation passed: correct %v, %d failed", rep.Correct, rep.Failed)
	}
}

func TestExitCodes(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"--workload", "nope", "--work-dir", t.TempDir()}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if code := realMain([]string{"--workload", "cold", "--trace", "2"}, &out, &errb); code != 2 {
		t.Errorf("bad --trace: exit %d", code)
	}
}

func TestReportLineShape(t *testing.T) {
	rep := &report{Correct: true, Attempted: 1, Metrics: map[string]metric{"setup_s": {Value: 0.5, Unit: "s"}}}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{`"correct"`, `"attempted"`, `"failed"`, `"metrics"`} {
		if !strings.Contains(string(raw), k) {
			t.Errorf("report line %s lacks %s", raw, k)
		}
	}
}
