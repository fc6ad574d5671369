package incr

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cla/internal/checks"
	"cla/internal/driver"
)

// fuzzFile is one workspace file as the fuzzer edits it: a prefix of
// blank lines (shifts every line below), the original text, the facts
// added so far and a run of comments appended without a newline (shifts
// no line).
type fuzzFile struct {
	prefix, base string
	facts        []string
	comments     string
}

func (f *fuzzFile) render() string {
	return f.prefix + f.base + strings.Join(f.facts, "") + f.comments
}

// analysisBytes renders everything a generation answers with: its
// digest, every points-to set and the full checks report.
func analysisBytes(t *testing.T, r *Result) string {
	t.Helper()
	rep, err := checks.Run(r.Prog, r.Res, checks.Options{Checks: checks.AllChecksAudited(), Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("digest %016x\npts %s\nchecks %s\n", r.Digest, fingerprint(r.Prog, r.Res), js)
}

// FuzzIncrEdits applies a random sequence of edits to a small workspace
// — add a fact, delete a fact, add a comment, shift lines, edit the
// shared header — and after each Update requires the incremental
// generation to answer byte-equal to a scratch Open of the same tree.
// It is the gate for every change to what the pipeline reuses. The
// first byte picks the solver and whether the session runs over a unit
// store; a stored session starts from a reopen, so every unit it edits
// from was decoded from the store, while the scratch Open always
// compiles.
func FuzzIncrEdits(f *testing.F) {
	f.Add([]byte{0, 0, 2, 3, 4})
	f.Add([]byte{1, 5, 2, 7, 12, 1, 6})
	f.Add([]byte{2, 0, 5, 10, 15, 1, 9, 4})
	f.Add([]byte{3, 4, 9, 14, 19, 3, 8})
	f.Add([]byte{4, 0, 1, 0, 1, 2, 2, 4, 4})
	f.Add([]byte{5, 0, 1, 2, 3, 0, 1})
	f.Add([]byte{8, 5, 6, 4, 9, 2, 14})
	solvers := []driver.Solver{
		driver.PreTransitive, driver.Worklist, driver.Steensgaard,
		driver.BitVector, driver.OneLevel,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 10 {
			t.Skip()
		}
		dir := t.TempDir()
		writeTree(t, dir, baseTree)
		files := map[string]*fuzzFile{}
		for name, content := range baseTree {
			files[name] = &fuzzFile{base: content}
		}
		units := []string{"count.c", "list.c", "main.c", "table.c"}
		cfg := testConfig(dir)
		cfg.Solver = solvers[int(data[0])%len(solvers)]
		stored := cfg
		if data[0]/5%2 == 1 {
			stored.CacheDir = t.TempDir()
			if _, err := Open(context.Background(), stored); err != nil {
				t.Fatal(err)
			}
		}
		p, err := Open(context.Background(), stored)
		if err != nil {
			t.Fatal(err)
		}
		for k, b := range data[1:] {
			name := units[int(b/5)%len(units)]
			ff := files[name]
			switch b % 5 {
			case 0: // add a fact, linked across units through fz_shared
				ff.facts = append(ff.facts, fmt.Sprintf(
					"extern int *fz_shared;\nint fz_g%[1]d, *fz_p%[1]d;\nvoid fz_f%[1]d(void) { fz_p%[1]d = &fz_g%[1]d; fz_shared = fz_p%[1]d; }\n", k))
			case 1: // delete the newest fact, if any
				if len(ff.facts) > 0 {
					ff.facts = ff.facts[:len(ff.facts)-1]
				}
			case 2:
				ff.comments += fmt.Sprintf("/* fz %d */", k)
			case 3:
				ff.prefix += "\n"
			case 4: // the shared header: shift it, or add a fact to every includer
				name, ff = "shared.h", files["shared.h"]
				if k%2 == 0 {
					ff.prefix += "\n"
				} else {
					ff.facts = append(ff.facts, fmt.Sprintf("static struct node **fz_h%d = &head;\n", k))
				}
			}
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, []byte(ff.render()), 0o644); err != nil {
				t.Fatal(err)
			}
			got, _, err := p.Update(context.Background(), path)
			if err != nil {
				t.Fatalf("edit %d (%s): %v", k, name, err)
			}
			scratch, err := Open(context.Background(), cfg)
			if err != nil {
				t.Fatalf("edit %d: scratch open: %v", k, err)
			}
			if g, w := analysisBytes(t, got), analysisBytes(t, scratch.Current()); g != w {
				t.Fatalf("edit %d (%s): incremental generation differs from scratch:\n%s\nvs\n%s", k, name, g, w)
			}
		}
	})
}
