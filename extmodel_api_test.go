package cla

// Public-API tests for incomplete-program analysis: the undefined-external
// inventory, the ExtModel analyze option across in-memory and file-backed
// analyses, and the externs audit + SARIF surface of LintReport.

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

const incompleteAPISource = `
extern char *xstrdup(char *s);
extern int *ext_cursor;

char *kept;

char *remember(char *s) {
	kept = xstrdup(s);
	return kept;
}
int read_cursor(void) { return *ext_cursor; }
`

func compileIncomplete(t *testing.T) *Database {
	t.Helper()
	db, err := CompileSource("inc.c", incompleteAPISource, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return db
}

func TestDatabaseUndefined(t *testing.T) {
	db := compileIncomplete(t)
	var funcs, globals []string
	for _, u := range db.Undefined() {
		if u.File == "" || u.Line == 0 {
			t.Errorf("undefined %q has no location: %+v", u.Name, u)
		}
		if u.Func {
			funcs = append(funcs, u.Name)
		} else {
			globals = append(globals, u.Name)
		}
	}
	if len(funcs) != 1 || funcs[0] != "xstrdup" {
		t.Errorf("undefined funcs = %v, want [xstrdup]", funcs)
	}
	if len(globals) != 1 || globals[0] != "ext_cursor" {
		t.Errorf("undefined globals = %v, want [ext_cursor]", globals)
	}
}

// TestDatabaseUndefinedSkipsUnreferenced: an extern or prototype the
// program declares but never references is no undefined external: it is
// not in the database at all.
func TestDatabaseUndefinedSkipsUnreferenced(t *testing.T) {
	db, err := CompileSource("inc.c", incompleteAPISource+`
extern int never_used;
extern char *never_called(char *s);
`, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var names []string
	for _, u := range db.Undefined() {
		names = append(names, u.Name)
	}
	if got := strings.Join(names, " "); got != "xstrdup ext_cursor" {
		t.Errorf("undefined = %q, want %q", got, "xstrdup ext_cursor")
	}
}

func TestAnalyzeExtModel(t *testing.T) {
	db := compileIncomplete(t)

	plain, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if pts := plain.PointsToName("kept"); len(pts) != 0 {
		t.Errorf("unsound pts(kept) = %v, want empty", pts)
	}

	sound, err := db.AnalyzeCtx(context.Background(), &AnalyzeOptions{ExtModel: ExtModelBlanket})
	if err != nil {
		t.Fatalf("analyze blanket: %v", err)
	}
	var names []string
	for _, o := range sound.PointsToName("kept") {
		names = append(names, o.Name())
	}
	ext := false
	for _, n := range names {
		if n == "<external>" {
			ext = true
		}
	}
	if !ext {
		t.Errorf("blanket pts(kept) = %v, want <external> included", names)
	}
	// The caller's database is untouched; the analysis sees the extension.
	if n := len(db.Objects()); n != len(plain.Database().Objects()) {
		t.Errorf("original database grew to %d objects", n)
	}
	if len(sound.Database().Objects()) <= len(db.Objects()) {
		t.Errorf("modeled database missing external-world objects")
	}
}

func TestAnalyzeFileExtModel(t *testing.T) {
	db := compileIncomplete(t)
	path := filepath.Join(t.TempDir(), "inc.cla")
	if err := db.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	a, err := AnalyzeFileCtx(context.Background(), path, &AnalyzeOptions{ExtModel: ExtModelEscape})
	if err != nil {
		t.Fatalf("analyze file: %v", err)
	}
	defer a.Close()
	found := false
	for _, o := range a.PointsToName("kept") {
		if o.Name() == "<external>" {
			found = true
		}
	}
	if !found {
		t.Errorf("file-backed escape analysis: pts(kept) misses <external>")
	}
}

func TestLintAuditAndSARIF(t *testing.T) {
	db := compileIncomplete(t)
	a, err := db.AnalyzeCtx(context.Background(), &AnalyzeOptions{ExtModel: ExtModelBlanket})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	rep, err := a.Lint(nil)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	audit := rep.Audit()
	if audit == nil || !audit.Modeled || audit.Model != "blanket" {
		t.Fatalf("audit = %+v, want modeled blanket", audit)
	}
	if len(audit.UndefFuncs) != 1 || len(audit.UndefGlobals) != 1 {
		t.Errorf("audit inventory = %+v, want 1 func / 1 global", audit)
	}
	for _, f := range rep.Findings() {
		if f.Check == "deref" {
			t.Errorf("modeled lint still reports deref finding: %s", f)
		}
	}

	raw, err := rep.SARIF()
	if err != nil {
		t.Fatalf("sarif: %v", err)
	}
	var log map[string]any
	if err := json.Unmarshal(raw, &log); err != nil {
		t.Fatalf("sarif output is not JSON: %v", err)
	}
	if v, _ := log["version"].(string); v != "2.1.0" {
		t.Errorf("sarif version = %q", v)
	}
	if !strings.Contains(string(raw), "externAudit") {
		t.Errorf("sarif output missing externAudit property")
	}

	// Unsound analyses keep the audit out of the default lint run.
	plain, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	prep, err := plain.Lint(nil)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if prep.Audit() != nil {
		t.Errorf("unsound default lint produced an audit")
	}
}

func TestParseExtModelAPI(t *testing.T) {
	for name, want := range map[string]ExtModel{
		"": ExtModelUnsound, "unsound": ExtModelUnsound,
		"blanket": ExtModelBlanket, "escape": ExtModelEscape,
	} {
		got, err := ParseExtModel(name)
		if err != nil || got != want {
			t.Errorf("ParseExtModel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseExtModel("bogus"); err == nil {
		t.Errorf("ParseExtModel accepted bogus")
	}
}

func TestParseAlgorithmAPI(t *testing.T) {
	for name, want := range map[string]Algorithm{
		"pretrans": PreTransitive, "worklist": WorklistAndersen,
		"steens": SteensgaardUnify, "steensgaard": SteensgaardUnify,
		"bitvec": BitVectorAndersen, "onelevel": OneLevelFlow, "das": OneLevelFlow,
	} {
		got, err := ParseAlgorithm(name)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, want)
		}
		if back, err := ParseAlgorithm(got.String()); err != nil || back != got {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", got.String(), back, err, got)
		}
	}
	if got, err := ParseAlgorithm("bogus"); err == nil || got != PreTransitive {
		t.Errorf("ParseAlgorithm(bogus) = %v, %v; want a usage error with the default", got, err)
	}
}
