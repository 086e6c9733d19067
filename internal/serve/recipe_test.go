package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recipeDigests pins the named-workload recipe — regenerate, warm 3x
// snapped to a macro-op boundary, warm code and data, run — by the content
// digest of the baseline trace it produces. The recipe itself
// (workload.Measured, cpu.RunRegion), a served job and the experiments
// runner must all land on these exact bytes, or a fleet worker and its
// coordinator would disagree. The digests predate the recipe's move into
// one owner.
var recipeDigests = []struct {
	workload string
	seed     int64
	digest   string
}{
	{"429.mcf", 1, "5f0e1ac7ad88602efd682a4e319d40b4ee453177d37271e568b6c29be2c5f967"},
	{"429.mcf", 42, "491822d8677f2227098c7ca4aff289b14ed24186869e14717a04fd7f31bd2c87"},
	{"416.gamess", 1, "0bf6ed031534599a405c8321126a20c9a9d80647238350942ef52ed23d38aac9"},
	{"416.gamess", 42, "24b909407d305c1a3dc91aa685287cb3f4d856debca479f37888cef2f1e05172"},
}

const recipeMicroOps = 2000

func TestNamedWorkloadRecipeDigests(t *testing.T) {
	s := New(Config{Workers: 2, SweepParallelism: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, tc := range recipeDigests {
		t.Run(fmt.Sprintf("%s/seed=%d", tc.workload, tc.seed), func(t *testing.T) {
			region, err := workload.Measured(tc.workload, tc.seed, recipeMicroOps)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := cpu.RunRegion(config.Baseline(), region, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := trace.Digest(tr); got != tc.digest {
				t.Errorf("recipe digest %s, want %s", got, tc.digest)
			}

			r := experiments.NewRunner(recipeMicroOps)
			r.Seed = tc.seed
			app, err := r.App(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			if got := trace.Digest(app.Trace); got != tc.digest {
				t.Errorf("Runner.App digest %s, want %s", got, tc.digest)
			}

			body := fmt.Sprintf(`{"workload":%q,"seed":%d,"micro_ops":%d,"axes":["L1D=1,2"],"engine":"graph","top":2}`,
				tc.workload, tc.seed, recipeMicroOps)
			v, code := submitJob(t, ts.URL, body)
			if code != http.StatusAccepted {
				t.Fatalf("submit status %d, want 202", code)
			}
			v = pollJob(t, ts.URL, v.ID)
			if v.Status != JobDone {
				t.Fatalf("job status %s (error %q), want done", v.Status, v.Error)
			}
			if v.Result.TraceDigest != tc.digest {
				t.Errorf("served job digest %s, want %s", v.Result.TraceDigest, tc.digest)
			}
		})
	}
}
