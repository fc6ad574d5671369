package cla

// Determinism tests for the instrumentation layer: the -stats report and
// the -trace export of every CLI must be identical at -j 1 and -j 8 once
// run-dependent figures (wall times, allocation deltas, trace
// timestamps, worker-pool counters) are normalized away. This pins the
// track model: parallel spans are keyed by work index, not by worker.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	durRE   = regexp.MustCompile(`\d+\.\d{6}s`)
	bytesRE = regexp.MustCompile(`\+[0-9.]+(B|KB|MB)`)
	tsRE    = regexp.MustCompile(`"(ts|dur)":[0-9.e+-]+`)
	allocRE = regexp.MustCompile(`"alloc_bytes":[0-9]+`)
	// -j >= 2 selects the phase-parallel wave fixpoint, a different (but
	// equally deterministic) schedule than the -j 1 reference, so the
	// schedule-dependent solver counters legitimately differ between the
	// two modes. The analysis outcome rows (pointer vars, relations, in
	// core, loaded, in file) stay byte-identical and are NOT normalized.
	schedRowRE = regexp.MustCompile(`(?m)^(passes:|unifications:|cache hits:|cache misses:|edges added:)(\s+)\d+$`)
	schedCtrRE = regexp.MustCompile(`(?m)^(\s*)(solver\.(passes|unifications|cache_hits|cache_misses|edges_added)|solve\.[a-z_]+)(\s+)\S+$`)
)

// schedCounters lists the trace counter names that depend on which solve
// schedule (sequential vs wave) ran.
var schedCounters = []string{
	"solver.passes", "solver.unifications", "solver.cache_hits",
	"solver.cache_misses", "solver.edges_added", "solve.",
}

// normalizeStats strips wall-clock durations, allocation deltas and the
// schedule-dependent solver counters from a -stats report, leaving the
// structure and every outcome count.
func normalizeStats(s string) string {
	s = durRE.ReplaceAllString(s, "DUR")
	s = bytesRE.ReplaceAllString(s, "+N")
	s = schedRowRE.ReplaceAllString(s, "${1}${2}N")
	s = schedCtrRE.ReplaceAllString(s, "${1}${2}${4}N")
	return s
}

// normalizeTrace strips timestamps, durations, allocation figures and
// the jobs-dependent pool.* and solve-schedule counter lines from a
// Chrome trace.
func normalizeTrace(s string) string {
	var keep []string
line:
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, `"pool.`) {
			continue
		}
		if strings.Contains(line, "heap_peak_bytes") {
			// Heap high-water gauges are run-dependent, like wall times.
			continue
		}
		for _, c := range schedCounters {
			if strings.Contains(line, `"`+c) {
				continue line
			}
		}
		keep = append(keep, line)
	}
	s = strings.Join(keep, "\n")
	s = tsRE.ReplaceAllString(s, `"$1":0`)
	s = allocRE.ReplaceAllString(s, `"alloc_bytes":0`)
	return s
}

// writeObsProject lays down a small multi-unit C project.
func writeObsProject(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"defs.h": "#ifndef DEFS_H\n#define DEFS_H\nextern int g;\nextern int *p;\nextern int **q;\nvoid f(void);\nvoid h(void);\n#endif\n",
		"a.c":    "#include \"defs.h\"\nint g;\nint *p;\nvoid f(void) { p = &g; }\n",
		"b.c":    "#include \"defs.h\"\nint **q;\nvoid h(void) { q = &p; *q = p; }\n",
		"c.c":    "#include \"defs.h\"\nstatic int *r;\nvoid k(void) { r = *q; p = r; }\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runObs runs a tool accepting exit status 0 or 1 (clalint reports
// findings via the exit code).
func runObs(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	b, err := cmd.CombinedOutput()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, b)
		}
	}
	return string(b)
}

func TestCLIObsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clacc", "claan", "clalint")
	dir := writeObsProject(t)
	cs := []string{filepath.Join(dir, "a.c"), filepath.Join(dir, "b.c"), filepath.Join(dir, "c.c")}

	cases := []struct {
		name string
		argv func(jobs int, trace string) (string, []string)
	}{
		{"clacc", func(jobs int, trace string) (string, []string) {
			out := filepath.Join(t.TempDir(), "out.clo")
			args := []string{"-j", fmt.Sprint(jobs), "-stats", "-trace", trace, "-I", dir, "-o", out}
			return tools["clacc"], append(args, cs...)
		}},
		{"claan", func(jobs int, trace string) (string, []string) {
			return tools["claan"], []string{"-j", fmt.Sprint(jobs), "-stats", "-trace", trace, dir}
		}},
		{"clalint", func(jobs int, trace string) (string, []string) {
			return tools["clalint"], []string{"-j", fmt.Sprint(jobs), "-stats", "-trace", trace, dir}
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type snap struct{ stats, trace string }
			var snaps []snap
			for _, jobs := range []int{1, 8} {
				trace := filepath.Join(t.TempDir(), "trace.json")
				bin, args := tc.argv(jobs, trace)
				stats := runObs(t, bin, args...)
				tb, err := os.ReadFile(trace)
				if err != nil {
					t.Fatalf("-j %d wrote no trace: %v", jobs, err)
				}
				if !json.Valid(tb) {
					t.Fatalf("-j %d trace is not valid JSON", jobs)
				}
				if !strings.Contains(string(tb), `"traceEvents"`) {
					t.Fatalf("-j %d trace missing traceEvents array", jobs)
				}
				snaps = append(snaps, snap{normalizeStats(stats), normalizeTrace(string(tb))})
			}
			if snaps[0].stats != snaps[1].stats {
				t.Errorf("-stats differs between -j1 and -j8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
					snaps[0].stats, snaps[1].stats)
			}
			if snaps[0].trace != snaps[1].trace {
				t.Errorf("-trace differs between -j1 and -j8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
					snaps[0].trace, snaps[1].trace)
			}
		})
	}
}

// TestCLIObsReportShape spot-checks the claan -stats report sections. A
// directory is compiled, linked and analyzed in memory: phases, database
// and analysis, with no encode phase and no demand loading. Its linked
// database is demand-loaded from the file, adds the demand-loading
// section and its load.* counters, and gives the same analysis section.
func TestCLIObsReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "claan", "clacc")
	dir := writeObsProject(t)
	out := runObs(t, tools["claan"], "-stats", dir)
	for _, want := range []string{
		"== phases ==", "compile", "analyze",
		"== database ==", "== analysis (pre-transitive) ==", "pointer vars:",
		"== counters ==", "compile.preamble_hits", "compile.preamble_misses",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("claan -stats missing %q:\n%s", want, out)
		}
	}
	for _, absent := range []string{"pool.", "== demand loading ==", "load."} {
		if strings.Contains(out, absent) {
			t.Errorf("claan -stats over a directory prints %q:\n%s", absent, out)
		}
	}
	phases, _, _ := strings.Cut(out[strings.Index(out, "== phases =="):], "== database ==")
	for _, phase := range []string{"compile", "link", "analyze"} {
		if !regexp.MustCompile(`(?m)^\s*` + phase + `\s`).MatchString(phases) {
			t.Errorf("claan -stats phases lack %q:\n%s", phase, phases)
		}
	}
	if regexp.MustCompile(`(?m)^\s*encode\s`).MatchString(phases) {
		t.Errorf("claan -stats phases include encode:\n%s", phases)
	}

	db := filepath.Join(t.TempDir(), "p.clo")
	runObs(t, tools["clacc"], "-o", db, dir)
	fromDB := runObs(t, tools["claan"], "-stats", db)
	for _, want := range []string{"== demand loading ==", "blocks loaded", "bytes loaded", "load.entries.loaded"} {
		if !strings.Contains(fromDB, want) {
			t.Errorf("claan -stats over a database missing %q:\n%s", want, fromDB)
		}
	}
	if a, b := statsSection(out, "analysis"), statsSection(fromDB, "analysis"); a == "" || a != b {
		t.Errorf("analysis section differs between directory and database:\n%s\n---\n%s", a, b)
	}
}

// statsSection returns the -stats report section whose title starts
// with title, up to the blank line that ends it.
func statsSection(out, title string) string {
	i := strings.Index(out, "== "+title)
	if i < 0 {
		return ""
	}
	sec, _, _ := strings.Cut(out[i:], "\n\n")
	return sec
}
