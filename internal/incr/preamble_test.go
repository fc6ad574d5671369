package incr

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cla/internal/gen"
	"cla/internal/objfile"
	"cla/internal/obs"
)

// writeCode writes a generated program into a fresh directory.
func writeCode(t *testing.T, code *gen.Code) string {
	t.Helper()
	dir := t.TempDir()
	writeTree(t, dir, code.Files)
	return dir
}

// definesTree has a header that declares a function one unit defines
// and a struct tag another unit completes, beside units that use both.
var definesTree = map[string]string{
	"defs.h": `#ifndef DEFS_H
#define DEFS_H
typedef struct obj Obj;
struct pair { int *a, *b; };
Obj *make(int *v);
int *get(Obj *o);
extern int g;
#define FIRST(p) ((p)->a)
#endif
`,
	"def.c": `#include "defs.h"
struct obj { int *v; struct pair p; };
Obj *make(int *v) { static struct obj o; o.v = v; o.p.a = v; return &o; }
int *get(Obj *o) { return FIRST(&o->p); }
`,
	"use.c": `#include "defs.h"
int g;
int *r;
void run(void) { r = get(make(&g)); }
`,
	"alone.c": `#define LOCAL 1
#include "defs.h"
struct obj { long tag; };
int *q;
void other(struct pair *p) { q = FIRST(p); }
`,
}

// preambleWorkspaces returns the directories the memo is checked on:
// every examples directory with C files, every Table 2 profile at a
// small scale, gimp@0.2 and definesTree.
func preambleWorkspaces(t *testing.T) map[string]string {
	ws := map[string]string{}
	dirs, err := filepath.Glob("../../examples/*/testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(dirs, "../../examples/corpus") {
		abs, err := filepath.Abs(d)
		if err != nil {
			t.Fatal(err)
		}
		ws[d] = abs
	}
	for _, p := range gen.Table2 {
		ws[p.Name] = writeCode(t, gen.Generate(p.Scale(0.02), 1))
	}
	p, _ := gen.ProfileByName("gimp")
	ws["gimp@0.2"] = writeCode(t, gen.Generate(p.Scale(0.2), 1))
	defs := t.TempDir()
	writeTree(t, defs, definesTree)
	ws["defines"] = defs
	return ws
}

// TestPreambleMatchesPlainCompile: at -j 8, every unit a pipeline
// compiles through its memo has the program (digest and object file)
// and the deps of a compile without the memo, and a unit store filled
// without the memo serves every unit of the memo's pipeline.
func TestPreambleMatchesPlainCompile(t *testing.T) {
	for name, dir := range preambleWorkspaces(t) {
		cfg := testConfig(dir)
		cfg.Jobs = 8
		p, err := Open(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dirs := []string{dir}
		for path, u := range p.units {
			plain, err := compileUnit(path, dirs, cfg.Frontend, nil)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if d := diffUnits(u, plain); d != "" {
				t.Errorf("%s: %s", path, d)
			}
		}

		cfg.CacheDir = t.TempDir()
		st, err := OpenStore(cfg.CacheDir)
		if err != nil {
			t.Fatal(err)
		}
		for path := range p.units {
			if _, err := st.Compile(path, dirs, cfg.Frontend); err != nil {
				t.Fatal(err)
			}
		}
		stored, err := Open(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s := stored.Current().Stats; s.StoreHits != len(p.units) || s.Recompiled != 0 {
			t.Errorf("%s: store filled without the memo: stats %+v, want %d store hits", name, s, len(p.units))
		}
		if stored.Current().Digest != p.Current().Digest {
			t.Errorf("%s: store-served digest differs", name)
		}
	}
}

// diffUnits compares two compiles of one unit: digests, object files
// and deps.
func diffUnits(got, want *unit) string {
	if got.digest != want.digest {
		return fmt.Sprintf("digest %x, want %x", got.digest, want.digest)
	}
	var gb, wb bytes.Buffer
	if err := objfile.Write(&gb, got.prog); err != nil {
		return err.Error()
	}
	if err := objfile.Write(&wb, want.prog); err != nil {
		return err.Error()
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		return "object files differ"
	}
	if !reflect.DeepEqual(got.deps, want.deps) {
		return fmt.Sprintf("deps %v, want %v", got.deps, want.deps)
	}
	return ""
}

// TestPreambleCounters: a cold open preprocesses the shared header once
// at any -j, and a comment edit serves it from the memo.
func TestPreambleCounters(t *testing.T) {
	p, _ := gen.ProfileByName("gimp")
	code := gen.Generate(p.Scale(0.01), 1)
	units := len(code.Units())
	if units < 2 {
		t.Fatalf("%d units", units)
	}
	for _, jobs := range []int{1, 2, 8} {
		dir := writeCode(t, code)
		cfg := testConfig(dir)
		cfg.Jobs = jobs
		o := obs.New()
		cfg.Obs = o
		pipe, err := Open(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts := func() (int64, int64) {
			return o.Counter("compile.preamble_hits").Value(), o.Counter("compile.preamble_misses").Value()
		}
		if h, m := counts(); h != int64(units-1) || m != 1 {
			t.Fatalf("jobs=%d: open: %d hits, %d misses; want %d and 1", jobs, h, m, units-1)
		}
		u := code.Units()[units/2]
		path := edit(t, dir, u, code.Files[u]+"/* comment */")
		if _, st, err := pipe.Update(context.Background(), path); err != nil || st.Recompiled != 1 || !st.SolveReused {
			t.Fatalf("jobs=%d: comment edit: %+v, %v", jobs, st, err)
		}
		if h, m := counts(); h != int64(units) || m != 1 {
			t.Fatalf("jobs=%d: comment edit: %d hits, %d misses in all; want %d and 1", jobs, h, m, units)
		}
	}
}

// TestPreambleHeaderEditReplacesEntry: a shared-header edit recompiles
// its users through a replaced entry, and a unit added after it is
// served that entry; every unit equals a plain compile.
func TestPreambleHeaderEditReplacesEntry(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, definesTree)
	cfg := testConfig(dir)
	cfg.Jobs = 8
	o := obs.New()
	cfg.Obs = o
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// use.c and def.c share a key; alone.c's #define gives it another.
	check := func(when string, hits, misses int64) {
		t.Helper()
		if h, m := o.Counter("compile.preamble_hits").Value(), o.Counter("compile.preamble_misses").Value(); h != hits || m != misses {
			t.Fatalf("%s: %d hits, %d misses; want %d and %d", when, h, m, hits, misses)
		}
	}
	check("open", 1, 2)
	hdr := edit(t, dir, "defs.h", definesTree["defs.h"]+"typedef int *IP;\nextern IP more;\n")
	if _, _, err := p.Update(context.Background(), hdr); err != nil {
		t.Fatal(err)
	}
	check("header edit", 2, 4)
	if err := os.WriteFile(filepath.Join(dir, "more.c"), []byte("#include \"defs.h\"\nIP more;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("new unit", 3, 4)
	for path, u := range p.units {
		plain, err := compileUnit(path, []string{dir}, cfg.Frontend, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffUnits(u, plain); d != "" {
			t.Errorf("%s: %s", path, d)
		}
	}
}

// ownHeaders rewrites a generated tree into the usual C layout where
// each unit x.c starts with its own x.h, which includes the shared
// header: no two units share a leading include.
func ownHeaders(code *gen.Code) map[string]string {
	files := map[string]string{"defs.h": code.Files["defs.h"]}
	for _, u := range code.Units() {
		h := strings.TrimSuffix(u, ".c") + ".h"
		files[h] = "#include \"defs.h\"\n"
		files[u] = strings.Replace(code.Files[u], "#include \"defs.h\"", "#include \""+h+"\"", 1)
	}
	return files
}

// TestPreambleSweepKeepsOnlyShared: an open keeps the shared header's
// entry, so a comment edit is served from it, and keeps nothing of a
// workspace whose units each start with their own header, so the edited
// unit preprocesses its header again; the programs equal plain compiles.
func TestPreambleSweepKeepsOnlyShared(t *testing.T) {
	p, _ := gen.ProfileByName("gimp")
	code := gen.Generate(p.Scale(0.01), 1)
	units := code.Units()
	for _, tc := range []struct {
		name               string
		files              map[string]string
		openHits, editHits int64
	}{{"shared", code.Files, int64(len(units) - 1), 1}, {"own", ownHeaders(code), 0, 0}} {
		dir := t.TempDir()
		writeTree(t, dir, tc.files)
		cfg := testConfig(dir)
		cfg.Jobs = 8
		o := obs.New()
		cfg.Obs = o
		pipe, err := Open(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string, hits, misses int64) {
			t.Helper()
			if h, m := o.Counter("compile.preamble_hits").Value(), o.Counter("compile.preamble_misses").Value(); h != hits || m != misses {
				t.Fatalf("%s: %s: %d hits, %d misses; want %d and %d", tc.name, when, h, m, hits, misses)
			}
		}
		openMisses := int64(len(units)) - tc.openHits
		check("open", tc.openHits, openMisses)
		u := units[0]
		path := edit(t, dir, u, tc.files[u]+"/* comment */")
		if _, st, err := pipe.Update(context.Background(), path); err != nil || st.Recompiled != 1 {
			t.Fatalf("%s: comment edit: %+v, %v", tc.name, st, err)
		}
		check("comment edit", tc.openHits+tc.editHits, openMisses+1-tc.editHits)
		for path, u := range pipe.units {
			plain, err := compileUnit(path, []string{dir}, cfg.Frontend, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffUnits(u, plain); d != "" {
				t.Errorf("%s: %s: %s", tc.name, path, d)
			}
		}
	}
}
