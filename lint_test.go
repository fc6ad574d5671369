package cla

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

const lintSrc = `
int g;
int *p, *wild;
int *leak;
void init(void) { p = &g; }
void deref(void) { *wild = g; }
int *esc(void) {
	int x;
	leak = &x;
	return &x;
}
`

func TestAnalysisLint(t *testing.T) {
	db, err := CompileSource("l.c", lintSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.Lint(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range rep.Findings() {
		got = append(got, f.String())
	}
	want := []string{
		"l.c:6: [deref] dereference of 'wild' whose points-to set is empty (null or uninitialized pointer?) (in deref)",
		"l.c:8: [escape] address of local 'x' may be returned by 'esc', outliving its frame (in esc)",
		"l.c:8: [escape] address of local 'x' may be stored in global 'leak', outliving its frame (in esc)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\ngot:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if dot := rep.CallGraphDOT(); !strings.Contains(dot, "digraph callgraph") {
		t.Errorf("DOT output: %q", dot)
	}
	if len(rep.ModRef()) == 0 {
		t.Error("no MOD/REF summaries")
	}
}

func TestAnalysisLintSelection(t *testing.T) {
	db, err := CompileSource("l.c", lintSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.Lint(&LintOptions{Checks: []string{"deref"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings() {
		if f.Check != "deref" {
			t.Errorf("unexpected check %s in selection", f.Check)
		}
	}
	if rep.CallGraphDOT() != "" {
		t.Error("call graph produced without callgraph check")
	}
	if _, err := an.Lint(&LintOptions{Checks: []string{"nosuch"}}); err == nil {
		t.Error("bad check name accepted")
	}
}

// TestAnalysisLintFileBacked lints through the demand-loaded AnalyzeFileCtx
// path, which must materialize assignments and call sites from the file.
func TestAnalysisLintFileBacked(t *testing.T) {
	db, err := CompileSource("l.c", lintSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "l.cla")
	if err := db.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	an, err := AnalyzeFileCtx(context.Background(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	rep, err := an.Lint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Findings()); n != 3 {
		t.Errorf("file-backed lint: %d findings, want 3: %v", n, rep.Findings())
	}
}
