package dse

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/workload"
)

// cancelAfter is a context.Context whose Err flips to Canceled after a
// fixed number of Err calls. The sweep checks the context once per chunk,
// so this injects a crash at a deterministic chunk boundary — after the
// first n chunks have been evaluated and their checkpoint files published.
type cancelAfter struct {
	mu        sync.Mutex
	remaining int
}

func (c *cancelAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

func (c *cancelAfter) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *cancelAfter) Done() <-chan struct{}       { return nil }
func (c *cancelAfter) Value(any) any               { return nil }

// chunkFiles lists the published chunk files in a checkpoint directory.
func chunkFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), chunkPrefix) {
			out = append(out, filepath.Join(dir, de.Name()))
		}
	}
	return out
}

// TestCheckpointCrashResumeDifferential is the crash-safety acceptance
// test: a checkpointed sweep is killed after a fixed number of chunks, then
// resumed over the same directory, and the stitched result must equal an
// uninterrupted serial sweep point for point — for every engine, with the
// resumed sweep running in parallel so chunk publication is exercised
// concurrently (this test is part of the -race CI run).
func TestCheckpointCrashResumeDifferential(t *testing.T) {
	cfg, g, a, pts := prepareWorkload(t, "429.mcf", 7, 2500, 60)
	uops := smallStream(t, "429.mcf", 7, 2500)

	engines := []struct {
		name string
		run  func(opts ExploreOptions) (*Report, error)
	}{
		{"rpstacks", func(opts ExploreOptions) (*Report, error) { return ExploreRpStacksOpts(a, pts, opts) }},
		{"graph", func(opts ExploreOptions) (*Report, error) { return ExploreGraphOpts(g, pts, opts) }},
		{"sim", func(opts ExploreOptions) (*Report, error) { return Explore(SimEngine(cfg, uops), pts, opts) }},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			uninterrupted, err := eng.run(ExploreOptions{})
			if err != nil {
				t.Fatal(err)
			}

			const crashChunks = 4
			dir := t.TempDir()
			ck := &Checkpoint{Dir: dir}
			// Crashed run: serial, chunked, cancelled after 4 chunks of 5.
			_, err = eng.run(ExploreOptions{
				Parallelism: 1,
				ChunkSize:   5,
				Context:     &cancelAfter{remaining: crashChunks},
				Checkpoint:  ck,
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("crashed run returned %v, want context.Canceled", err)
			}
			if got := len(chunkFiles(t, dir)); got != crashChunks {
				t.Fatalf("crash left %d chunk files, want %d", got, crashChunks)
			}

			// Resumed run: parallel, over the same directory.
			resumed, err := eng.run(ExploreOptions{Parallelism: 4, ChunkSize: 3, Checkpoint: ck})
			if err != nil {
				t.Fatal(err)
			}
			if want := crashChunks * 5; resumed.Resumed != want {
				t.Fatalf("resume restored %d points, want %d", resumed.Resumed, want)
			}
			sameResults(t, eng.name+" resumed vs uninterrupted", uninterrupted.Results, resumed.Results)

			// A third run over the now-complete checkpoint evaluates nothing.
			full, err := eng.run(ExploreOptions{Checkpoint: ck})
			if err != nil {
				t.Fatal(err)
			}
			if full.Resumed != len(pts) {
				t.Fatalf("complete checkpoint restored %d of %d points", full.Resumed, len(pts))
			}
			sameResults(t, eng.name+" fully resumed", uninterrupted.Results, full.Results)
		})
	}
}

// TestCheckpointRejectsForeignSweep writes a checkpoint with one sweep and
// resumes with different design points: the fingerprint must make that a
// hard error, never a silent mix of two sweeps' results.
func TestCheckpointRejectsForeignSweep(t *testing.T) {
	_, _, a, pts := prepareWorkload(t, "429.mcf", 3, 2000, 20)
	dir := t.TempDir()
	ck := &Checkpoint{Dir: dir}
	if _, err := ExploreRpStacksOpts(a, pts, ExploreOptions{Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}

	// Same engine and analysis, one point dropped: a different sweep.
	if _, err := ExploreRpStacksOpts(a, pts[:len(pts)-1], ExploreOptions{Checkpoint: ck}); err == nil {
		t.Fatal("checkpoint from a different point list was accepted")
	} else if !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("unexpected error: %v", err)
	}

	// Same points, different engine: also a different sweep.
	_, g, _, _ := prepareWorkload(t, "429.mcf", 3, 2000, 1)
	if _, err := ExploreGraphOpts(g, pts, ExploreOptions{Checkpoint: ck}); err == nil {
		t.Fatal("checkpoint from a different engine was accepted")
	}
}

// TestCheckpointCorruptChunkIsReevaluated damages one published chunk
// in every way the store must survive — bit flip, truncation, garbage —
// and checks resume silently re-evaluates that chunk's points and still
// matches the uninterrupted sweep.
func TestCheckpointCorruptChunkIsReevaluated(t *testing.T) {
	_, _, a, pts := prepareWorkload(t, "429.mcf", 5, 2000, 30)
	uninterrupted, _ := Explore(RpStacksEngine(a), pts, ExploreOptions{})

	for _, damage := range []struct {
		name string
		hit  func(raw []byte) []byte
	}{
		{"bitflip", func(raw []byte) []byte { raw[len(raw)/2] ^= 1; return raw }},
		{"truncate", func(raw []byte) []byte { return raw[:len(raw)-7] }},
		{"garbage", func(raw []byte) []byte { return []byte("not a chunk") }},
	} {
		t.Run(damage.name, func(t *testing.T) {
			dir := t.TempDir()
			ck := &Checkpoint{Dir: dir}
			if _, err := ExploreRpStacksOpts(a, pts, ExploreOptions{ChunkSize: 5, Checkpoint: ck}); err != nil {
				t.Fatal(err)
			}
			files := chunkFiles(t, dir)
			if len(files) == 0 {
				t.Fatal("no chunks published")
			}
			victim := files[len(files)/2]
			raw, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(victim, damage.hit(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			resumed, err := ExploreRpStacksOpts(a, pts, ExploreOptions{ChunkSize: 5, Checkpoint: ck})
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Resumed >= len(pts) {
				t.Fatalf("resume restored %d points despite a corrupt chunk", resumed.Resumed)
			}
			sameResults(t, "after corruption", uninterrupted.Results, resumed.Results)
			if _, err := os.Stat(victim); !os.IsNotExist(err) {
				// The corrupt file must be gone (its name may be reused by the
				// re-evaluated chunk; then it decodes cleanly).
				if raw2, rerr := os.ReadFile(victim); rerr == nil {
					if _, _, derr := decodeChunk(raw2); derr != nil {
						t.Fatal("corrupt chunk file left in place")
					}
				}
			}
		})
	}
}

// smallStream regenerates the µop stream prepareWorkload simulated, for the
// sim engine.
func smallStream(t *testing.T, name string, seed int64, n int) []isa.MicroOp {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	return workload.Stream(prof, seed, n)
}

// TestCheckpointRemoveOnSuccess: with RemoveOnSuccess set, a sweep that
// finishes deletes its chunk files (and the directory, when it created it
// exclusively), while a crashed sweep keeps them — and a resume over the
// kept files still completes, cleans up, and matches the uninterrupted run.
func TestCheckpointRemoveOnSuccess(t *testing.T) {
	_, g, _, pts := prepareWorkload(t, "429.mcf", 7, 2500, 60)
	uninterrupted, _ := Explore(GraphEngine(g), pts, ExploreOptions{})

	dir := filepath.Join(t.TempDir(), "ck")
	ck := &Checkpoint{Dir: dir, RemoveOnSuccess: true}

	// Crashed run: the chunk files must survive — they are the resume state.
	_, err := ExploreGraphOpts(g, pts, ExploreOptions{
		Parallelism: 1,
		ChunkSize:   5,
		Context:     &cancelAfter{remaining: 3},
		Checkpoint:  ck,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("crashed run returned %v, want context.Canceled", err)
	}
	if got := len(chunkFiles(t, dir)); got != 3 {
		t.Fatalf("crash kept %d chunk files, want 3: RemoveOnSuccess must not fire on error", got)
	}

	// Successful resume: results match, then the checkpoint evaporates.
	resumed, err := ExploreGraphOpts(g, pts, ExploreOptions{ChunkSize: 5, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != 15 {
		t.Fatalf("resume restored %d points, want 15", resumed.Resumed)
	}
	sameResults(t, "resumed vs uninterrupted", uninterrupted.Results, resumed.Results)
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("checkpoint directory survived a successful sweep: %v", err)
	}

	// A directory holding foreign files loses only the chunk files.
	dir2 := filepath.Join(t.TempDir(), "ck2")
	if err := os.MkdirAll(dir2, 0o755); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(dir2, "NOTES.txt")
	if err := os.WriteFile(keep, []byte("not a chunk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ExploreGraphOpts(g, pts, ExploreOptions{
		ChunkSize:  5,
		Checkpoint: &Checkpoint{Dir: dir2, RemoveOnSuccess: true},
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(chunkFiles(t, dir2)); got != 0 {
		t.Fatalf("%d chunk files survive in a shared directory", got)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("foreign file was deleted: %v", err)
	}
}
