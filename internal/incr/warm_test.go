package incr

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/obs"
	"cla/internal/prim"
)

// TestFactEditsSolveWarm: the edit loop's fact edit — append a global
// and a pointer to it, then replace that fact with one under fresh
// names — splices the unit into the previous link, solves warm from the
// previous generation and answers exactly like a scratch open, at any
// worker count.
func TestFactEditsSolveWarm(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("j%d", jobs), func(t *testing.T) {
			dir := t.TempDir()
			writeTree(t, dir, baseTree)
			cfg := testConfig(dir)
			cfg.Jobs = jobs
			o := obs.New()
			cfg.Obs = o
			p, err := Open(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			plain := cfg
			plain.Obs = nil
			for k := 0; k < 3; k++ {
				path := edit(t, dir, "table.c", baseTree["table.c"]+
					fmt.Sprintf("int bench_g%[1]d;\nint *bench_p%[1]d = &bench_g%[1]d;\n", k))
				got, st, err := p.Update(context.Background(), path)
				if err != nil {
					t.Fatal(err)
				}
				if !st.Changed || !st.LinkSpliced || !st.SolveWarm || st.SolveReused {
					t.Fatalf("fact edit %d: stats %+v, want a spliced link and a warm solve", k, st)
				}
				scratch, err := Open(context.Background(), plain)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := analysisBytes(t, got), analysisBytes(t, scratch.Current()); g != w {
					t.Fatalf("fact edit %d: warm generation differs from scratch:\n%s\nvs\n%s", k, g, w)
				}
				gm, wm := got.Res.Metrics(), scratch.Current().Res.Metrics()
				if gm.PointerVars != wm.PointerVars || gm.Relations != wm.Relations {
					t.Fatalf("fact edit %d: metrics %+v, scratch %+v", k, gm, wm)
				}
				if jobs >= 2 && (gm.CacheHits != wm.CacheHits || gm.CacheMisses != wm.CacheMisses) {
					t.Fatalf("fact edit %d: cache %d/%d, scratch %d/%d", k, gm.CacheHits, gm.CacheMisses, wm.CacheHits, wm.CacheMisses)
				}
			}
			if w, s := o.Counter("incr.solve_warm").Value(), o.Counter("incr.solve_scratch").Value(); w != 3 || s != 1 {
				t.Fatalf("incr.solve_warm = %d, incr.solve_scratch = %d; want 3 and 1 (the open)", w, s)
			}
			if s, f := o.Counter("incr.link_spliced").Value(), o.Counter("incr.link_folded").Value(); s != 3 || f != 1 {
				t.Fatalf("incr.link_spliced = %d, incr.link_folded = %d; want 3 and 1 (the open)", s, f)
			}
		})
	}
}

// TestWarmStartFallsBack: each condition the warm start cannot meet
// solves from scratch, and the generation still equals a scratch open.
// The first edit of each case only adds, so it starts warm unless the
// configuration rules it out.
func TestWarmStartFallsBack(t *testing.T) {
	cases := []struct {
		name          string
		solver        driver.Solver
		model         extmodel.Model
		first, second string
		warm1         bool
	}{
		{"dropped store", driver.PreTransitive, extmodel.Unsound, fuzzStore("count.c", 0), fuzzStore("count.c", 1), true},
		{"dropped function", driver.PreTransitive, extmodel.Unsound, fuzzFact(1), fuzzFact(3), true},
		{"kind change", driver.PreTransitive, extmodel.Unsound, "int fz_x;\n", "void fz_x(void) {}\n", true},
		{"worklist solver", driver.Worklist, extmodel.Unsound, fuzzFact(0), fuzzFact(2), false},
		{"extern model", driver.PreTransitive, extmodel.Blanket, fuzzFact(0), fuzzFact(2), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeTree(t, dir, baseTree)
			edit(t, dir, "main.c", baseTree["main.c"]+"int *fz_kept;\n")
			cfg := testConfig(dir)
			cfg.Solver, cfg.Model = c.solver, c.model
			p, err := Open(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, fact := range []string{c.first, c.second} {
				path := edit(t, dir, "count.c", baseTree["count.c"]+fact)
				got, st, err := p.Update(context.Background(), path)
				if err != nil {
					t.Fatal(err)
				}
				if want := i == 0 && c.warm1; st.SolveWarm != want {
					t.Fatalf("edit %d: SolveWarm = %v, want %v", i, st.SolveWarm, want)
				}
				scratch, err := Open(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := analysisBytes(t, got), analysisBytes(t, scratch.Current()); g != w {
					t.Fatalf("edit %d: generation differs from scratch:\n%s\nvs\n%s", i, g, w)
				}
			}
		})
	}
}

// TestSameFuncs: the record condition accepts only records that map to
// identical ones, and a new record is an addition.
func TestSameFuncs(t *testing.T) {
	old := []prim.FuncRecord{{Func: 0, Params: []prim.SymID{1}, Ret: 2}}
	m := []prim.SymID{3, 4, 5, prim.NoSym}
	of := func(id prim.SymID) prim.SymID { return m[id] }
	for _, c := range []struct {
		name string
		new  []prim.FuncRecord
		want bool
	}{
		{"identical", []prim.FuncRecord{{Func: 3, Params: []prim.SymID{4}, Ret: 5}}, true},
		{"plus a new record", []prim.FuncRecord{{Func: 0}, {Func: 3, Params: []prim.SymID{4}, Ret: 5}}, true},
		{"record removed", []prim.FuncRecord{{Func: 0}}, false},
		{"param dropped", []prim.FuncRecord{{Func: 3, Ret: 5}}, false},
		{"param added", []prim.FuncRecord{{Func: 3, Params: []prim.SymID{4, 0}, Ret: 5}}, false},
		{"ret dropped", []prim.FuncRecord{{Func: 3, Params: []prim.SymID{4}, Ret: prim.NoSym}}, false},
		{"variadic", []prim.FuncRecord{{Func: 3, Params: []prim.SymID{4}, Ret: 5, Variadic: true}}, false},
	} {
		if got := sameFuncs(old, c.new, of); got != c.want {
			t.Errorf("%s: sameFuncs = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestHeaderShiftEdit: a fact edit whose unit first references a header
// function it did not use before puts that function's symbols into the
// unit's program among the header's entries, ahead of the unit's own, so
// every internal symbol of the unit moves to a higher index. warmEdit
// matches a changed unit's internal symbols by name, kind, function and
// occurrence, not by index, so the moved symbols still map and the edit
// re-solves warm; the generation must equal a scratch open.
func TestHeaderShiftEdit(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	edit(t, dir, "shared.h", baseTree["shared.h"]+"struct node *first(struct node *h);\n")
	edit(t, dir, "list.c", baseTree["list.c"]+"struct node *first(struct node *h) { return h; }\n")
	cfg := testConfig(dir)
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// tableProg returns table.c's program in the current generation.
	tableProg := func() *prim.Program {
		for _, u := range p.link.units {
			if filepath.Base(u.path) == "table.c" {
				return u.prog
			}
		}
		t.Fatal("no table.c unit")
		return nil
	}
	if tableProg().SymIDByName("first") != prim.NoSym {
		t.Fatal("table.c carries first before it references it")
	}
	path := edit(t, dir, "table.c", `
#include "shared.h"
struct node *bucket;
struct node *top;
void put(int v) { bucket = push(bucket, v); top = first(bucket); }
`)
	got, st, err := p.Update(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Changed || st.SolveReused {
		t.Fatalf("stats %+v, want a new solve", st)
	}
	if !st.SolveWarm {
		t.Errorf("SolveWarm = false; the shifted unit should re-solve from the previous fixpoint")
	}
	scratch, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := analysisBytes(t, got), analysisBytes(t, scratch.Current()); g != w {
		t.Fatalf("generation differs from scratch:\n%s\nvs\n%s", g, w)
	}
	if top := got.Linked.SymIDByName("top"); len(got.Res.PointsTo(top)) == 0 {
		t.Error("pts(top) is empty")
	}
	prog := tableProg()
	if f, v := prog.SymIDByName("first"), prog.SymIDByName("v"); f == prim.NoSym || v < f {
		t.Errorf("table.c: first at %d, v at %d; want first kept ahead of the unit's own symbols", f, v)
	}
}
