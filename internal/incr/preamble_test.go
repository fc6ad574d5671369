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

// writesTree has one unit of each kind that writes state of the header
// they share: two of them (longer.c, complete.c) change how the header
// itself lowers, so they are rechecked.
var writesTree = map[string]string{
	"w.h": `#ifndef W_H
#define W_H
int *same(int *p);
int *longer(int *p);
extern int *gp;
extern int g;
extern int *(*fp)(int *);
struct later;
extern struct later *cur;
typedef int *T;
extern T gt;
#endif
`,
	"same.c":     "#include \"w.h\"\nint *same(int *q) { return q; }\n",
	"longer.c":   "#include \"w.h\"\nint *longer(int *p, int *q) { return q; }\nvoid use(void) { gp = longer(gp, &g); }\n",
	"global.c":   "#include \"w.h\"\nint g;\nint *gp = &g;\n",
	"fnptr.c":    "#include \"w.h\"\nint v;\nvoid run(void) { fp = same; gp = fp(&v); }\n",
	"complete.c": "#include \"w.h\"\nstruct later { int *p; };\nvoid take(void) { gp = cur->p; }\n",
	"block.c":    "#include \"w.h\"\nvoid f(void) { int T = 1; gt = &g; T = 2; }\n",
}

// preambleWorkspaces returns the directories the memo is checked on:
// every examples directory with C files, every Table 2 profile at a
// small scale, gimp@0.2, definesTree and writesTree.
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
	writes := t.TempDir()
	writeTree(t, writes, writesTree)
	ws["writes"] = writes
	return ws
}

// wantRechecks is how many units of each preambleWorkspaces entry write
// header state that changes how the header lowers: the ones completing
// a struct the header declared, and writesTree's longer.c.
var wantRechecks = map[string]int64{"defines": 2, "writes": 2}

// TestPreambleMatchesPlainCompile: at -j 8, every unit a pipeline
// compiles through its memo has the program (digest and object file)
// and the deps of a compile without the memo, only the units that write
// header state the header's lowering reads are rechecked, and a unit
// store filled without the memo serves every unit of the memo's
// pipeline.
func TestPreambleMatchesPlainCompile(t *testing.T) {
	for name, dir := range preambleWorkspaces(t) {
		cfg := testConfig(dir)
		cfg.Jobs = 8
		o := obs.New()
		cfg.Obs = o
		p, err := Open(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := o.Counter("compile.preamble_rechecks").Value(); n != wantRechecks[name] {
			t.Errorf("%s: %d rechecks, want %d", name, n, wantRechecks[name])
		}
		cfg.Obs = nil
		dirs := []string{dir}
		for path, u := range p.units {
			plain, err := compileUnit(path, dirs, cfg.Frontend, nil, nil)
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
		stored.Close()
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
// at any -j, and a comment edit and a fact edit serve it from the memo;
// no unit is rechecked.
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
			if n := o.Counter("compile.preamble_rechecks").Value(); n != 0 {
				t.Fatalf("jobs=%d: %d rechecks", jobs, n)
			}
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
		path = edit(t, dir, u, code.Files[u]+"int bench_g;\nint *bench_p = &bench_g;\n")
		if _, st, err := pipe.Update(context.Background(), path); err != nil || st.Recompiled != 1 || st.SolveReused {
			t.Fatalf("jobs=%d: fact edit: %+v, %v", jobs, st, err)
		}
		if h, m := counts(); h != int64(units+1) || m != 1 {
			t.Fatalf("jobs=%d: fact edit: %d hits, %d misses in all; want %d and 1", jobs, h, m, units+1)
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
		plain, err := compileUnit(path, []string{dir}, cfg.Frontend, nil, nil)
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
			plain, err := compileUnit(path, []string{dir}, cfg.Frontend, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffUnits(u, plain); d != "" {
				t.Errorf("%s: %s: %s", tc.name, path, d)
			}
		}
	}
}
