package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cla/internal/checks"
	"cla/internal/claerr"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/obs"
	"cla/internal/snapfile"
)

// buildSnap builds and saves a snapshot of dir under cfg, returning the
// .snap path.
func buildSnap(t testing.TB, dir string, cfg Config) string {
	t.Helper()
	snap, err := BuildSnapshot(context.Background(), dir, cfg)
	if err != nil {
		t.Fatalf("BuildSnapshot: %v", err)
	}
	path := filepath.Join(t.TempDir(), "test.snap")
	if err := snapfile.Save(path, snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	return path
}

// evalJSON runs the all-kinds mix and renders each result as JSON — the
// byte-level form the HTTP layer would send.
func evalJSON(t *testing.T, s *Session) []string {
	t.Helper()
	results, err := s.Eval().EvalBatch(context.Background(), mixedQueries())
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	out := make([]string, len(results))
	for i, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		out[i] = string(b)
	}
	return out
}

// TestSnapshotIdentity asserts snapshot-served answers are byte-identical
// to live-solve ones for all six query kinds, across every solver, every
// extern model and both worker counts.
func TestSnapshotIdentity(t *testing.T) {
	solvers := []driver.Solver{
		driver.PreTransitive, driver.Worklist, driver.Steensgaard,
		driver.BitVector, driver.OneLevel,
	}
	models := []extmodel.Model{extmodel.Unsound, extmodel.Blanket, extmodel.Escape}
	dir := writeTestDir(t)
	for _, solver := range solvers {
		for _, model := range models {
			for _, jobs := range []int{1, 8} {
				name := fmt.Sprintf("%v/%v/j%d", solver, model, jobs)
				t.Run(name, func(t *testing.T) {
					cfg := Config{Solver: solver, ExtModel: model, Jobs: jobs}
					live, err := Open(context.Background(), "live", dir, cfg)
					if err != nil {
						t.Fatalf("live open: %v", err)
					}
					snapSess, err := Open(context.Background(), "snap", buildSnap(t, dir, cfg), cfg)
					if err != nil {
						t.Fatalf("snapshot open: %v", err)
					}
					if snapSess.Snap == nil {
						t.Fatal("snapshot session has no reader")
					}
					liveJSON, snapJSON := evalJSON(t, live), evalJSON(t, snapSess)
					for i := range liveJSON {
						if liveJSON[i] != snapJSON[i] {
							t.Errorf("query %d differs:\n live %s\n snap %s",
								i, liveJSON[i], snapJSON[i])
						}
					}
				})
			}
		}
	}
}

// TestSnapshotStale asserts an edited source fails the open with the
// typed staleness error (HTTP 409, exit code 3), and that SkipVerify
// bypasses the check.
func TestSnapshotStale(t *testing.T) {
	dir := writeTestDir(t)
	cfg := Config{Jobs: 1}
	path := buildSnap(t, dir, cfg)
	if _, err := Open(context.Background(), "s", path, cfg); err != nil {
		t.Fatalf("fresh snapshot open: %v", err)
	}
	src := filepath.Join(dir, "a.c")
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(src, append(b, []byte("int added;\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(context.Background(), "s", path, cfg)
	if !errors.Is(err, claerr.ErrStale) {
		t.Fatalf("edited source: got %v, want ErrStale", err)
	}
	if got := claerr.HTTPStatus(err); got != 409 {
		t.Fatalf("HTTPStatus = %d, want 409", got)
	}
	if got := claerr.ExitCode(err); got != 3 {
		t.Fatalf("ExitCode = %d, want 3", got)
	}
	skip := cfg
	skip.SkipVerify = true
	if _, err := Open(context.Background(), "s", path, skip); err != nil {
		t.Fatalf("SkipVerify open: %v", err)
	}
}

// TestSnapshotConcurrentQueries hammers one snapshot-backed session from
// many goroutines — the race detector guards the zero-copy read path.
func TestSnapshotConcurrentQueries(t *testing.T) {
	dir := writeTestDir(t)
	cfg := Config{Jobs: 4}
	sess, err := Open(context.Background(), "s", buildSnap(t, dir, cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := sess.Eval().EvalBatch(context.Background(), mixedQueries()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// checksRuns counts the checks runs o recorded in the serve.checks
// histogram.
func checksRuns(o *obs.Observer) int64 { return o.Histogram("serve.checks").Count() }

// TestSnapshotChecksOnDemand: BuildSnapshot stores no report, so a
// snapshot session runs the checks on its first lint query, once, and
// records the run's latency, but no span, on the session's observer.
func TestSnapshotChecksOnDemand(t *testing.T) {
	dir := writeTestDir(t)
	path := buildSnap(t, dir, Config{Jobs: 1})
	o := obs.New()
	sess, err := Open(context.Background(), "s", path, Config{Jobs: 1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Snap.Report() != nil || sess.Snap.Audit() != nil {
		t.Fatal("BuildSnapshot stored a checks report or audit")
	}
	if n := checksRuns(o); n != 0 {
		t.Fatalf("open ran the checks %d times", n)
	}
	lint := []Query{{Kind: "lint"}}
	if _, err := sess.Eval().EvalBatch(context.Background(), lint); err != nil {
		t.Fatal(err)
	}
	if n := checksRuns(o); n != 1 {
		t.Fatalf("first lint ran the checks %d times, want 1", n)
	}
	if _, err := sess.Eval().EvalBatch(context.Background(), mixedQueries()); err != nil {
		t.Fatal(err)
	}
	if n := checksRuns(o); n != 1 {
		t.Fatalf("later queries reran the checks: %d runs", n)
	}
	if len(o.Events()) != 0 {
		t.Fatal("checks run recorded spans, which a concurrent session's would overlap")
	}
}

// TestSnapshotStoredReportSeeds: a file that carries a checks report (an
// older writer's) still opens, and its report answers the lint,
// callgraph and modref queries without a checks run, byte-identical to a
// live session.
func TestSnapshotStoredReportSeeds(t *testing.T) {
	dir := writeTestDir(t)
	cfg := Config{Jobs: 1}
	snap, err := BuildSnapshot(context.Background(), dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Report, err = checks.Run(snap.Prog, snap.Res, checks.Options{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.snap")
	if err := snapfile.Save(path, snap); err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	sess, err := Open(context.Background(), "s", path, Config{Jobs: 1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Snap.Report() == nil {
		t.Fatal("stored report did not decode")
	}
	live, err := Open(context.Background(), "live", dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	liveJSON, snapJSON := evalJSON(t, live), evalJSON(t, sess)
	for i := range liveJSON {
		if liveJSON[i] != snapJSON[i] {
			t.Errorf("query %d differs:\n live %s\n snap %s", i, liveJSON[i], snapJSON[i])
		}
	}
	if n := checksRuns(o); n != 0 {
		t.Fatalf("a seeded session ran the checks %d times", n)
	}
}
