package cla

// End-to-end tests of the command-line toolchain: clagen → clacc → clald →
// claan, driving the built binaries the way a user would.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools compiles the command binaries once into a temp dir.
func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	out := map[string]string{}
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Dir = "."
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		out[name] = bin
	}
	return out
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	b, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, b)
	}
	return string(b)
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clacc", "clald", "claan")
	work := t.TempDir()

	// Two translation units with a shared header.
	os.WriteFile(filepath.Join(work, "defs.h"),
		[]byte("#ifndef DEFS_H\n#define DEFS_H\nextern int shared;\nextern int *sp;\n#endif\n"), 0o644)
	os.WriteFile(filepath.Join(work, "a.c"),
		[]byte("#include \"defs.h\"\nint shared;\nint *sp;\nvoid init(void) { sp = &shared; }\n"), 0o644)
	os.WriteFile(filepath.Join(work, "b.c"),
		[]byte("#include \"defs.h\"\nint mirror;\nvoid copy(void) { mirror = *sp; }\n"), 0o644)

	// Compile each unit.
	run(t, tools["clacc"], "-I", work,
		filepath.Join(work, "a.c"), filepath.Join(work, "b.c"))
	for _, f := range []string{"a.clo", "b.clo"} {
		if _, err := os.Stat(filepath.Join(work, f)); err != nil {
			t.Fatalf("%s not produced: %v", f, err)
		}
	}

	// Link.
	exe := filepath.Join(work, "prog.cla")
	out := run(t, tools["clald"], "-v", "-o", exe,
		filepath.Join(work, "a.clo"), filepath.Join(work, "b.clo"))
	if !strings.Contains(out, "2 units") {
		t.Errorf("clald -v output: %q", out)
	}

	// Points-to query.
	out = run(t, tools["claan"], "-pts", "sp", exe)
	if !strings.Contains(out, "sp -> {shared}") {
		t.Errorf("claan -pts sp: %q", out)
	}

	// Dependence query: mirror takes *sp which may be shared.
	out = run(t, tools["claan"], "-target", "shared", exe)
	if !strings.Contains(out, "mirror") {
		t.Errorf("claan -target shared: %q", out)
	}

	// Stats.
	out = run(t, tools["claan"], "-stats", exe)
	for _, want := range []string{"pointer vars:", "relations:", "in file:"} {
		if !strings.Contains(out, want) {
			t.Errorf("claan -stats missing %q: %q", want, out)
		}
	}

	// All three solvers answer the same query.
	for _, solver := range []string{"pretrans", "worklist", "steens"} {
		out = run(t, tools["claan"], "-solver", solver, "-pts", "sp", exe)
		if !strings.Contains(out, "shared") {
			t.Errorf("solver %s: %q", solver, out)
		}
	}

	// Ablation flags accepted.
	out = run(t, tools["claan"], "-no-cache", "-no-cycle-elim", "-no-demand-load", "-pts", "sp", exe)
	if !strings.Contains(out, "shared") {
		t.Errorf("ablation flags: %q", out)
	}
}

func TestCLIGen(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clagen", "clacc", "clald", "claan")
	work := t.TempDir()

	out := run(t, tools["clagen"], "-profile", "nethack", "-scale", "0.02",
		"-seed", "7", "-o", work)
	if !strings.Contains(out, "wrote") {
		t.Errorf("clagen output: %q", out)
	}
	matches, _ := filepath.Glob(filepath.Join(work, "*.c"))
	if len(matches) == 0 {
		t.Fatal("no .c files generated")
	}

	// Compile the generated tree and analyze it.
	args := []string{"-I", work, "-o", filepath.Join(work, "all.clo")}
	args = append(args, matches...)
	run(t, tools["clacc"], args...)
	exe := filepath.Join(work, "prog.cla")
	run(t, tools["clald"], "-o", exe, filepath.Join(work, "all.clo"))
	out = run(t, tools["claan"], "-stats", exe)
	if !strings.Contains(out, "relations:") {
		t.Errorf("stats: %q", out)
	}

	// List mode.
	out = run(t, tools["clagen"], "-profile", "list")
	if !strings.Contains(out, "lucent") {
		t.Errorf("profile list: %q", out)
	}
}

func TestCLIErrorPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "claan")
	// Missing database.
	cmd := exec.Command(tools["claan"], "-pts", "x", "/nonexistent.cla")
	if err := cmd.Run(); err == nil {
		t.Error("claan on missing file succeeded")
	}
	// No query flags.
	work := t.TempDir()
	db, err := CompileSource("t.c", "int x;", nil)
	if err != nil {
		t.Fatal(err)
	}
	exe := filepath.Join(work, "t.cla")
	if err := db.WriteFile(exe); err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command(tools["claan"], exe)
	if err := cmd.Run(); err == nil {
		t.Error("claan without query flags succeeded")
	}
}

func TestCLITransformsAndDot(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "claan")
	work := t.TempDir()
	db, err := CompileSource("t.c", `
int v;
int *p0, *p1, *p2;
int *id(int *x) { return x; }
void m(void) {
	p0 = &v;
	p1 = p0;
	p2 = id(p1);
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	exe := filepath.Join(work, "t.cla")
	if err := db.WriteFile(exe); err != nil {
		t.Fatal(err)
	}

	out := run(t, tools["claan"], "-ovs", "-pts", "p1", exe)
	if !strings.Contains(out, "v") {
		t.Errorf("-ovs query: %q", out)
	}
	out = run(t, tools["claan"], "-context", "-pts", "p2", exe)
	if !strings.Contains(out, "v") {
		t.Errorf("-context query: %q", out)
	}

	dot := filepath.Join(work, "pts.dot")
	run(t, tools["claan"], "-dot", dot, exe)
	b, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	if !strings.Contains(s, "digraph pointsto") || !strings.Contains(s, `"p0" -> "v"`) {
		t.Errorf("dot output:\n%s", s)
	}
}

func TestCLIDependenceTree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "claan")
	work := t.TempDir()
	db, err := CompileSource("t.c", `
short target, a, b;
void m(void) {
	a = target;
	b = a;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	exe := filepath.Join(work, "t.cla")
	if err := db.WriteFile(exe); err != nil {
		t.Fatal(err)
	}
	out := run(t, tools["claan"], "-target", "target", "-tree", exe)
	for _, want := range []string{"target/short", "└─", "[strong]"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
	out = run(t, tools["claan"], "-target", "target", "-tree", "-tree-depth", "1", exe)
	if strings.Contains(out, "b/short") {
		t.Errorf("depth limit ignored:\n%s", out)
	}
}

func TestCLICacheIncremental(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clacc")
	work := t.TempDir()
	cacheDir := filepath.Join(work, "cache")
	src := filepath.Join(work, "u.c")
	os.WriteFile(src, []byte("int v, *p;\nvoid m(void) { p = &v; }\n"), 0o644)

	run(t, tools["clacc"], "-cache", cacheDir, src)
	entries1, _ := filepath.Glob(filepath.Join(cacheDir, "*.clo"))
	if len(entries1) != 1 {
		t.Fatalf("cache entries = %d", len(entries1))
	}
	st1, _ := os.Stat(entries1[0])

	// Second run: entry untouched (hit).
	run(t, tools["clacc"], "-cache", cacheDir, src)
	st2, _ := os.Stat(entries1[0])
	if !st1.ModTime().Equal(st2.ModTime()) {
		t.Error("cache entry rewritten on hit")
	}

	// Source change: entry rewritten.
	os.WriteFile(src, []byte("int v, w, *p;\nvoid m(void) { p = &v; w = v; }\n"), 0o644)
	run(t, tools["clacc"], "-cache", cacheDir, src)
	st3, _ := os.Stat(entries1[0])
	if st1.ModTime().Equal(st3.ModTime()) && st1.Size() == st3.Size() {
		t.Error("cache entry not refreshed after edit")
	}

	// The #include search path is part of the entry: a unit compiled
	// under -I B is never served the entry compiled under -I A.
	incA, incB := filepath.Join(work, "A"), filepath.Join(work, "B")
	os.Mkdir(incA, 0o755)
	os.Mkdir(incB, 0o755)
	os.WriteFile(filepath.Join(incA, "defs.h"), []byte("int G;\n"), 0o644)
	os.WriteFile(filepath.Join(incB, "defs.h"), []byte("int G, H;\nint *q = &H;\n"), 0o644)
	os.WriteFile(src, []byte("#include \"defs.h\"\nint *p;\nvoid f(void) { p = &G; }\n"), 0o644)
	object := func(args ...string) string {
		out := filepath.Join(work, "out.clo")
		run(t, tools["clacc"], append(append(args, "-o", out), src)...)
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a := object("-I", incA, "-cache", cacheDir)
	b := object("-I", incB, "-cache", cacheDir)
	if b != object("-I", incB) {
		t.Error("cached compile under -I B differs from a fresh compile")
	}
	if a == b {
		t.Error("-I A and -I B produced the same object")
	}
}

// TestCLIClabenchWritesNothing pins clabench as print-only: a kept table
// renders to stdout and leaves the working directory untouched, and a
// table number outside the kept set is a usage error.
func TestCLIClabenchWritesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clabench")
	work := t.TempDir()

	cmd := exec.Command(tools["clabench"], "-table", "9", "-scale", "0.01")
	cmd.Dir = work
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("clabench -table 9: %v", err)
	}
	if !strings.Contains(string(out), "== Analysis clients") {
		t.Errorf("clabench -table 9 output lacks the table header:\n%s", out)
	}
	entries, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("clabench -table 9 left %s in its working directory", e.Name())
	}

	cmd = exec.Command(tools["clabench"], "-table", "8")
	cmd.Dir = work
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("clabench -table 8: err = %v, want exit status 2", err)
	}
}
