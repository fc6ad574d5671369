package cla

// End-to-end tests of the clalint static-analysis client CLI: golden
// callee sets over the funcpointers example, exit-code convention, and
// byte-identical output across -j settings on a generated benchmark.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cla/internal/gen"
)

// runExit runs bin and returns combined output and exit code; it fails
// the test only on start-up errors, not on non-zero exits.
func runExit(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	b, err := cmd.CombinedOutput()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return string(b), ee.ExitCode()
		}
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, b)
	}
	return string(b), 0
}

// funcpointersSource extracts the C program embedded in the funcpointers
// example.
func funcpointersSource(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("examples", "funcpointers", "main.go"))
	if err != nil {
		t.Fatalf("read example: %v", err)
	}
	const marker = "const source = `"
	i := bytes.Index(data, []byte(marker))
	if i < 0 {
		t.Fatal("embedded C source not found in example")
	}
	rest := data[i+len(marker):]
	j := bytes.IndexByte(rest, '`')
	if j < 0 {
		t.Fatal("unterminated C source in example")
	}
	return string(rest[:j])
}

func TestClalintFuncpointers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clalint")
	work := t.TempDir()
	src := filepath.Join(work, "dispatch.c")
	if err := os.WriteFile(src, []byte(funcpointersSource(t)), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, solver := range []string{"pretrans", "worklist", "steens", "bitvec", "onelevel"} {
		jsonPath := filepath.Join(work, solver+".json")
		out, code := runExit(t, tools["clalint"], "-solver", solver, "-json", jsonPath, src)
		if code != 0 {
			t.Fatalf("%s: exit %d, output:\n%s", solver, code, out)
		}
		if strings.TrimSpace(out) != "" {
			t.Errorf("%s: expected clean report, got:\n%s", solver, out)
		}
		js, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		// The one indirect site through "hot" must reach all three
		// handlers under every solver.
		for _, h := range []string{"handle_read", "handle_write", "handle_close"} {
			if !bytes.Contains(js, []byte(h)) {
				t.Errorf("%s: call graph misses %s:\n%s", solver, h, js)
			}
		}
		if !bytes.Contains(js, []byte(`"indirect": true`)) {
			t.Errorf("%s: no indirect site in call graph:\n%s", solver, js)
		}
	}
}

func TestClalintExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clalint")
	work := t.TempDir()

	clean := filepath.Join(work, "clean.c")
	os.WriteFile(clean, []byte("int g;\nint *p;\nvoid f(void) { p = &g; *p = g; }\n"), 0o644)
	out, code := runExit(t, tools["clalint"], clean)
	if code != 0 || strings.TrimSpace(out) != "" {
		t.Errorf("clean program: exit %d, output %q", code, out)
	}

	buggy := filepath.Join(work, "buggy.c")
	os.WriteFile(buggy, []byte("int g;\nint *p;\nvoid f(void) { *p = g; }\n"), 0o644)
	out, code = runExit(t, tools["clalint"], buggy)
	if code != 1 {
		t.Errorf("buggy program: exit %d, want 1; output %q", code, out)
	}
	if !strings.Contains(out, "[deref]") || !strings.Contains(out, "buggy.c:3") {
		t.Errorf("buggy program diagnostics: %q", out)
	}

	if _, code = runExit(t, tools["clalint"], filepath.Join(work, "missing.c")); code != 2 {
		t.Errorf("missing input: exit %d, want 2", code)
	}
	if _, code = runExit(t, tools["clalint"], "-solver", "nosuch", clean); code != 2 {
		t.Errorf("bad solver: exit %d, want 2", code)
	}
	if _, code = runExit(t, tools["clalint"], "-checks", "nosuch", clean); code != 2 {
		t.Errorf("bad check: exit %d, want 2", code)
	}
}

// TestClalintIncludeDirs: -I reaches every unit compile whether the
// units are named one by one or found by listing a directory; so does
// each unit's own directory, for an angle include; and -D NAME defines
// NAME as 1.
func TestClalintIncludeDirs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clalint")
	work := t.TempDir()
	inc, src, ang, feat := filepath.Join(work, "inc"), filepath.Join(work, "src"), filepath.Join(work, "ang"), filepath.Join(work, "feat")
	for _, d := range []string{inc, src, ang, feat} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	files := map[string]string{
		filepath.Join(inc, "defs.h"): "extern int g;\nextern int *p;\n",
		filepath.Join(src, "a.c"):    "#include \"defs.h\"\nint g;\nint *p;\nvoid f(void) { p = &g; *p = g; }\n",
		filepath.Join(src, "b.c"):    "#include \"defs.h\"\nvoid h(void) { *p = 1; }\n",
		filepath.Join(ang, "defs.h"): "extern int g;\nextern int *p;\n",
		filepath.Join(ang, "a.c"):    "#include <defs.h>\nint g;\nint *p;\nvoid f(void) { p = &g; *p = g; }\n",
		filepath.Join(ang, "b.c"):    "#include <defs.h>\nvoid h(void) { *p = 1; }\n",
		filepath.Join(feat, "f.c"):   "#if FEATURE\nint g;\nint *p;\nvoid f(void) { p = &g; *p = g; }\n#else\n#error FEATURE is off\n#endif\n",
	}
	for path, content := range files {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{
		{"-I", inc, filepath.Join(src, "a.c"), filepath.Join(src, "b.c")},
		{"-I", inc, src},
		{filepath.Join(ang, "a.c"), filepath.Join(ang, "b.c")},
		{ang},
		{"-D", "FEATURE", filepath.Join(feat, "f.c")},
		{"-D", "FEATURE", feat},
	} {
		out, code := runExit(t, tools["clalint"], args...)
		if code != 0 {
			t.Errorf("clalint %v: exit %d, output:\n%s", args, code, out)
		}
	}
}

func TestClalintDatabaseInput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clalint")
	work := t.TempDir()

	db, err := CompileSource("dispatch.c", funcpointersSource(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(work, "prog.cla")
	if err := db.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	out, code := runExit(t, tools["clalint"], "-modref", path)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	// handle_write reads *req which binds to &buf_c at the call site.
	if !strings.Contains(out, "handle_write: MOD {} REF {buf_c}") {
		t.Errorf("modref output:\n%s", out)
	}
}

// TestClalintDeterminism requires byte-identical stdout, DOT and JSON at
// -j 1 and -j 8 over a generated synthetic benchmark.
func TestClalintDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clalint")
	work := t.TempDir()

	code := gen.Generate(gen.Table2[1].Scale(0.05), 7) // small burlap-shaped workload
	srcDir := filepath.Join(work, "src")
	if err := os.Mkdir(srcDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, content := range code.Files {
		if err := os.WriteFile(filepath.Join(srcDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	render := func(jobs string) string {
		dot := filepath.Join(work, "cg"+jobs+".dot")
		js := filepath.Join(work, "cg"+jobs+".json")
		out, exit := runExit(t, tools["clalint"], "-j", jobs, "-modref", "-dot", dot, "-json", js, srcDir)
		if exit == 2 {
			t.Fatalf("-j %s failed:\n%s", jobs, out)
		}
		d, err := os.ReadFile(dot)
		if err != nil {
			t.Fatal(err)
		}
		j, err := os.ReadFile(js)
		if err != nil {
			t.Fatal(err)
		}
		return out + string(d) + string(j)
	}

	one := render("1")
	eight := render("8")
	if one != eight {
		t.Fatalf("clalint output differs between -j 1 and -j 8:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", one, eight)
	}
}

// TestClalintExtModel covers the incomplete-program mode end to end:
// -extmodel blanket suppresses the empty-points-to deref false positive,
// enables the externs audit, and -format sarif emits a parseable SARIF
// log carrying the audit. The unsound default must keep today's output.
func TestClalintExtModel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clalint")
	work := t.TempDir()

	inc := filepath.Join(work, "inc.c")
	os.WriteFile(inc, []byte(
		"extern int **ext_table;\nint peek(void) { return **ext_table; }\n"), 0o644)

	// Unsound default: the deref check fires, no externs output.
	out, code := runExit(t, tools["clalint"], inc)
	if code != 1 || !strings.Contains(out, "[deref]") {
		t.Errorf("unsound run: exit %d, output %q", code, out)
	}
	if strings.Contains(out, "[externs]") {
		t.Errorf("unsound run emitted externs diagnostics: %q", out)
	}

	// Blanket model: the false positive is gone, the audit takes over.
	out, code = runExit(t, tools["clalint"], "-extmodel", "blanket", inc)
	if code != 1 {
		t.Errorf("blanket run: exit %d, want 1 (audit findings)", code)
	}
	if strings.Contains(out, "[deref]") {
		t.Errorf("blanket run still reports deref: %q", out)
	}
	if !strings.Contains(out, "[externs]") || !strings.Contains(out, "ext_table") {
		t.Errorf("blanket run missing externs audit: %q", out)
	}

	// SARIF output parses and carries the audit; identical at -j 1 and 8.
	sarif1, code := runExit(t, tools["clalint"], "-extmodel", "escape", "-format", "sarif", "-j", "1", inc)
	if code == 2 {
		t.Fatalf("sarif run failed: %s", sarif1)
	}
	sarif8, _ := runExit(t, tools["clalint"], "-extmodel", "escape", "-format", "sarif", "-j", "8", inc)
	if sarif1 != sarif8 {
		t.Errorf("SARIF output differs between -j 1 and -j 8")
	}
	var log map[string]any
	if err := json.Unmarshal([]byte(sarif1), &log); err != nil {
		t.Fatalf("SARIF output is not JSON: %v\n%s", err, sarif1)
	}
	if !strings.Contains(sarif1, "externAudit") || !strings.Contains(sarif1, "\"2.1.0\"") {
		t.Errorf("SARIF output missing audit or version:\n%s", sarif1)
	}

	if _, code = runExit(t, tools["clalint"], "-extmodel", "nosuch", inc); code != 2 {
		t.Errorf("bad model: exit %d, want 2", code)
	}
	if _, code = runExit(t, tools["clalint"], "-format", "nosuch", inc); code != 2 {
		t.Errorf("bad format: exit %d, want 2", code)
	}
}
