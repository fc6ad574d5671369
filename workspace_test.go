package cla

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var wsTree = map[string]string{
	"ws.h": `
void *malloc(unsigned long);
struct box { int *slot; };
extern struct box shared_box;
`,
	"alpha.c": `
#include "ws.h"
struct box shared_box;
int alpha_val;
void alpha_store(void) { shared_box.slot = &alpha_val; }
`,
	"beta.c": `
#include "ws.h"
int beta_val;
void beta_store(void) { shared_box.slot = &beta_val; }
`,
}

func writeWsTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func pointsToNames(a *Analysis, name string) string {
	var out []string
	for _, o := range a.PointsToName(name) {
		out = append(out, o.Name())
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

func TestWorkspaceMatchesOneShotPipeline(t *testing.T) {
	dir := t.TempDir()
	writeWsTree(t, dir, wsTree)

	w, err := OpenWorkspace(context.Background(), dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ws := w.Analysis()
	if ws.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", ws.Generation())
	}

	db, err := CompileDirCtx(context.Background(), dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if oneShot.Generation() != 1 {
		t.Fatalf("one-shot generation = %d, want 1", oneShot.Generation())
	}
	for _, name := range []string{"shared_box", "box.slot"} {
		if got, want := pointsToNames(ws, name), pointsToNames(oneShot, name); got != want {
			t.Fatalf("workspace pts(%s) = %q, one-shot = %q", name, got, want)
		}
	}
}

// TestWorkspaceCloseSavesGeneration: Close saves the solved generation
// in CacheDir before it returns, so the next workspace over the
// unchanged tree is read from it and answers as the first did, while
// the first workspace's analysis stays usable after its Close.
func TestWorkspaceCloseSavesGeneration(t *testing.T) {
	dir, cache := t.TempDir(), t.TempDir()
	writeWsTree(t, dir, wsTree)
	first, err := OpenWorkspace(context.Background(), dir, &WorkspaceOptions{CacheDir: cache})
	if err != nil {
		t.Fatal(err)
	}
	a := first.Analysis()
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if snaps, _ := filepath.Glob(filepath.Join(cache, "*.snap")); len(snaps) != 1 {
		t.Fatalf("cache holds %v after Close, want one saved generation", snaps)
	}
	o := NewObserver()
	second, err := OpenWorkspace(context.Background(), dir, &WorkspaceOptions{CacheDir: cache, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	b := second.Analysis()
	if n := b.Stats().Counters["incr.solve_snapshot"]; n != 1 {
		t.Fatalf("reopen: incr.solve_snapshot = %d, want 1", n)
	}
	for _, name := range []string{"shared_box", "box.slot"} {
		if got, want := pointsToNames(b, name), pointsToNames(a, name); got != want || name == "box.slot" && got == "" {
			t.Fatalf("reopened pts(%s) = %q, first workspace = %q", name, got, want)
		}
	}
}

func TestWorkspaceUpdateYieldsNewGeneration(t *testing.T) {
	dir := t.TempDir()
	writeWsTree(t, dir, wsTree)
	w, err := OpenWorkspace(context.Background(), dir, &WorkspaceOptions{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	gen1 := w.Analysis()

	path := filepath.Join(dir, "beta.c")
	edited := `
#include "ws.h"
int beta_val;
int gamma_val;
void beta_store(void) { shared_box.slot = &gamma_val; }
`
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	an, err := w.Update(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if an.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", an.Generation())
	}
	if got := pointsToNames(an, "box.slot"); !strings.Contains(got, "gamma_val") {
		t.Fatalf("new generation pts = %q, want gamma_val", got)
	}
	// The old snapshot is pinned: still generation 1, still the old set.
	if gen1.Generation() != 1 {
		t.Fatalf("old snapshot generation = %d", gen1.Generation())
	}
	if got := pointsToNames(gen1, "box.slot"); strings.Contains(got, "gamma_val") {
		t.Fatalf("old generation leaked the edit: %q", got)
	}

	// No-op refresh: same Analysis pointer back.
	again, err := w.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again != an {
		t.Fatal("no-op refresh returned a new Analysis")
	}
}

func TestWorkspaceWatch(t *testing.T) {
	dir := t.TempDir()
	writeWsTree(t, dir, wsTree)
	w, err := OpenWorkspace(context.Background(), dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan *Analysis, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Watch(ctx, 20*time.Millisecond, func(a *Analysis, err error) {
			if err == nil {
				got <- a
			}
		})
	}()

	time.Sleep(30 * time.Millisecond)
	edited := `
#include "ws.h"
int beta_val;
int delta_val;
void beta_store(void) { shared_box.slot = &delta_val; }
`
	if err := os.WriteFile(filepath.Join(dir, "beta.c"), []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-got:
		if a.Generation() != 2 {
			t.Fatalf("watched generation = %d, want 2", a.Generation())
		}
		if got := pointsToNames(a, "box.slot"); !strings.Contains(got, "delta_val") {
			t.Fatalf("watched analysis pts = %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch never delivered the edit")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("watch did not stop on cancel")
	}
}
