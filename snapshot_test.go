package cla

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cla/internal/claerr"
)

// TestSnapshotRoundTrip saves a solved analysis and reopens it from the
// .snap file; every query answer must be byte-identical, the checks
// report's included, though the file stores none.
func TestSnapshotRoundTrip(t *testing.T) {
	an := buildServeAnalysis(t)
	path := filepath.Join(t.TempDir(), "serve.snap")
	if err := an.SaveSnapshot(path, nil); err != nil {
		t.Fatalf("save: %v", err)
	}
	reopened, err := OpenSnapshot(path, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer reopened.Close()
	// SaveSnapshot stores no checks report: the reopened analysis
	// computes it for the callgraph, modref and lint queries below.
	if reopened.snap.Report() != nil || reopened.snap.Audit() != nil {
		t.Fatal("SaveSnapshot stored a checks report or audit")
	}

	queries := []Query{
		{Kind: "pointsto", Name: "p"},
		{Kind: "alias", X: "p", Y: "q"},
		{Kind: "callgraph"},
		{Kind: "modref", Func: "set"},
		{Kind: "dependence", Target: "g"},
		{Kind: "lint"},
	}
	live, err := an.Query(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := reopened.Query(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range live {
		lb, _ := json.Marshal(live[i])
		sb, _ := json.Marshal(snap[i])
		if string(lb) != string(sb) {
			t.Errorf("query %d (%s) differs:\n live %s\n snap %s",
				i, queries[i].Kind, lb, sb)
		}
	}
	if got, want := reopened.Metrics(), an.Metrics(); got != want {
		t.Errorf("metrics differ: %+v != %+v", got, want)
	}
	if reopened.alg != an.alg || reopened.ext != an.ext {
		t.Errorf("configuration not restored: alg %v/%v ext %v/%v",
			reopened.alg, an.alg, reopened.ext, an.ext)
	}
}

// TestSnapshotStaleSource asserts the recorded-source check fires with
// exit code 3 after an edit, and that SkipVerify bypasses it.
func TestSnapshotStaleSource(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "a.c")
	code := "int g; int *p; void f(void) { p = &g; }\n"
	if err := os.WriteFile(src, []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := CompileFile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "a.snap")
	if err := an.SaveSnapshot(path, &SnapshotOptions{Sources: []string{src}}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(path, nil); err != nil {
		t.Fatalf("fresh open: %v", err)
	}
	if err := os.WriteFile(src, []byte(code+"int extra;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSnapshot(path, nil)
	if !errors.Is(err, claerr.ErrStale) {
		t.Fatalf("edited source: got %v, want ErrStale", err)
	}
	if got := claerr.ExitCode(err); got != 3 {
		t.Fatalf("ExitCode = %d, want 3", got)
	}
	if _, err := OpenSnapshot(path, &OpenSnapshotOptions{SkipVerify: true}); err != nil {
		t.Fatalf("SkipVerify open: %v", err)
	}
}
