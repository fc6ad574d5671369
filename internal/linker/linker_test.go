package linker

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cla/internal/cpp"
	"cla/internal/frontend"
	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/prim"
)

func compileUnit(t *testing.T, name, src string) *prim.Program {
	t.Helper()
	p, err := frontend.CompileSource(name, src, nil, frontend.Options{})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return p
}

func symNames(p *prim.Program, name string) int {
	n := 0
	for i := range p.Syms {
		if p.Syms[i].Name == name {
			n++
		}
	}
	return n
}

func assignSet(p *prim.Program) map[string]int {
	out := map[string]int{}
	for _, a := range p.Assigns {
		out[frontend.FormatAssign(p, a)]++
	}
	return out
}

func TestLinkMergesGlobals(t *testing.T) {
	a := compileUnit(t, "a.c", "int shared;\nint x;\nvoid f(void) { x = shared; }")
	b := compileUnit(t, "b.c", "extern int shared;\nint y;\nvoid g(void) { shared = y; }")
	merged, err := Link([]*prim.Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Validate(); err != nil {
		t.Fatalf("linked program invalid: %v", err)
	}
	if n := symNames(merged, "shared"); n != 1 {
		t.Errorf("shared appears %d times, want 1", n)
	}
	as := assignSet(merged)
	if as["x = shared"] != 1 || as["shared = y"] != 1 {
		t.Errorf("assigns = %v", as)
	}
}

func TestLinkKeepsStaticsDistinct(t *testing.T) {
	a := compileUnit(t, "a.c", "static int priv;\nint xa;\nvoid f(void) { xa = priv; }")
	b := compileUnit(t, "b.c", "static int priv;\nint xb;\nvoid g(void) { xb = priv; }")
	merged, err := Link([]*prim.Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if n := symNames(merged, "priv"); n != 2 {
		t.Errorf("priv appears %d times, want 2", n)
	}
}

func TestLinkKeepsLocalsDistinct(t *testing.T) {
	a := compileUnit(t, "a.c", "int ga; void f(void) { int l; l = ga; }")
	b := compileUnit(t, "b.c", "int gb; void g(void) { int l; l = gb; }")
	merged, err := Link([]*prim.Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if n := symNames(merged, "l"); n != 2 {
		t.Errorf("l appears %d times, want 2", n)
	}
}

func TestLinkFunctionCallAcrossUnits(t *testing.T) {
	def := compileUnit(t, "def.c", "int get(int k) { return k; }")
	use := compileUnit(t, "use.c", "int get(int);\nint r, a;\nvoid m(void) { r = get(a); }")
	merged, err := Link([]*prim.Program{def, use})
	if err != nil {
		t.Fatal(err)
	}
	// get$1 and get$ret must each be one merged symbol.
	if n := symNames(merged, "get$1"); n != 1 {
		t.Errorf("get$1 appears %d times", n)
	}
	if n := symNames(merged, "get$ret"); n != 1 {
		t.Errorf("get$ret appears %d times", n)
	}
	as := assignSet(merged)
	for _, want := range []string{"k = get$1", "get$ret = k", "get$1 = a", "r = get$ret"} {
		if as[want] != 1 {
			t.Errorf("missing %q in %v", want, as)
		}
	}
}

func TestLinkFieldSymbolsMerge(t *testing.T) {
	hdr := "struct S { int *p; };\n"
	a := compileUnit(t, "a.c", hdr+"struct S sa; int va;\nvoid f(void) { sa.p = &va; }")
	b := compileUnit(t, "b.c", hdr+"struct S sb; int *qb;\nvoid g(void) { qb = sb.p; }")
	merged, err := Link([]*prim.Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if n := symNames(merged, "S.p"); n != 1 {
		t.Errorf("S.p appears %d times, want 1", n)
	}
}

func TestLinkFuncRecordMerge(t *testing.T) {
	// One unit calls with 1 arg, definition has 2 params: record keeps 2.
	def := compileUnit(t, "def.c", "int two(int a, int b) { return a; }")
	use := compileUnit(t, "use.c", "int r; void m(void) { r = two(1); }")
	merged, err := Link([]*prim.Program{use, def})
	if err != nil {
		t.Fatal(err)
	}
	var rec *prim.FuncRecord
	for i := range merged.Funcs {
		if merged.Sym(merged.Funcs[i].Func).Name == "two" {
			rec = &merged.Funcs[i]
		}
	}
	if rec == nil {
		t.Fatal("no record for two")
	}
	if len(rec.Params) != 2 {
		t.Errorf("params = %d, want 2", len(rec.Params))
	}
	if rec.Ret == prim.NoSym {
		t.Error("ret missing")
	}
	count := 0
	for i := range merged.Funcs {
		if merged.Sym(merged.Funcs[i].Func).Name == "two" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("two has %d records, want 1", count)
	}
}

func TestLinkStaticFunctionsStayDistinct(t *testing.T) {
	a := compileUnit(t, "a.c", "static int helper(int v) { return v; }\nint ra; void fa(void) { ra = helper(1); }")
	b := compileUnit(t, "b.c", "static int helper(int v) { return v; }\nint rb; void fb(void) { rb = helper(2); }")
	merged, err := Link([]*prim.Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if n := symNames(merged, "helper"); n != 2 {
		t.Errorf("helper appears %d times, want 2", n)
	}
	if n := symNames(merged, "helper$1"); n != 2 {
		t.Errorf("helper$1 appears %d times, want 2", n)
	}
}

func TestLinkFuncPtrFlagPropagates(t *testing.T) {
	a := compileUnit(t, "a.c", "int (*cb)(int);\nint use(void) { return cb(1); }")
	b := compileUnit(t, "b.c", "extern int (*cb)(int);\nint f(int v) { return v; }\nvoid set(void) { cb = f; }")
	merged, err := Link([]*prim.Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	id := merged.SymIDByName("cb")
	if id == prim.NoSym || !merged.Sym(id).FuncPtr {
		t.Error("cb lost FuncPtr flag")
	}
}

func TestLinkIncompatibleKinds(t *testing.T) {
	a := &prim.Program{}
	a.AddSym(prim.Symbol{Name: "clash", Kind: prim.SymField})
	b := &prim.Program{}
	b.AddSym(prim.Symbol{Name: "clash", Kind: prim.SymFunc})
	if _, err := Link([]*prim.Program{a, b}); err == nil {
		t.Error("field/function clash accepted")
	}
}

func TestLinkBadAssignRejected(t *testing.T) {
	a := &prim.Program{}
	a.AddSym(prim.Symbol{Name: "x", Kind: prim.SymGlobal})
	a.Assigns = append(a.Assigns, prim.Assign{Kind: prim.Simple, Dst: 0, Src: 42})
	if _, err := Link([]*prim.Program{a}); err == nil {
		t.Error("bad assignment accepted")
	}
}

func TestLinkFilesEndToEnd(t *testing.T) {
	dir := t.TempDir()
	a := compileUnit(t, "a.c", "int shared; void f(void) { shared = 1; }")
	b := compileUnit(t, "b.c", "extern int shared; int y; void g(void) { y = shared; }")
	pa := filepath.Join(dir, "a.clo")
	pb := filepath.Join(dir, "b.clo")
	if err := objfile.WriteFile(pa, a); err != nil {
		t.Fatal(err)
	}
	if err := objfile.WriteFile(pb, b); err != nil {
		t.Fatal(err)
	}
	merged, err := LinkFiles([]string{pa, pb}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := symNames(merged, "shared"); n != 1 {
		t.Errorf("shared = %d", n)
	}
	// The merged program must itself be writable and re-readable — the
	// "executable" has the same format as object files.
	exe := filepath.Join(dir, "all.cla")
	if err := objfile.WriteFile(exe, merged); err != nil {
		t.Fatal(err)
	}
	r, err := objfile.Open(exe)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumSyms() != len(merged.Syms) {
		t.Errorf("reread syms = %d, want %d", r.NumSyms(), len(merged.Syms))
	}
}

func TestLinkFilesMissing(t *testing.T) {
	const path = "/nonexistent/x.clo"
	_, err := LinkFiles([]string{path}, nil)
	if err == nil || !strings.HasPrefix(err.Error(), "linker: "+path+": ") {
		t.Errorf("LinkFiles on a missing file: %v, want an error naming it", err)
	}
}

func TestLinkManyUnitsScales(t *testing.T) {
	var units []*prim.Program
	for i := 0; i < 20; i++ {
		src := "extern int hub;\nint local" + string(rune('a'+i)) + ";\n" +
			"void f" + string(rune('a'+i)) + "(void) { hub = local" + string(rune('a'+i)) + "; }"
		units = append(units, compileUnit(t, "u.c", src))
	}
	merged, err := Link(units)
	if err != nil {
		t.Fatal(err)
	}
	if n := symNames(merged, "hub"); n != 1 {
		t.Errorf("hub = %d", n)
	}
	as := assignSet(merged)
	total := 0
	for k, v := range as {
		if strings.HasPrefix(k, "hub = ") {
			total += v
		}
	}
	if total != 20 {
		t.Errorf("hub assignments = %d, want 20", total)
	}
}

func TestLinkDeterministic(t *testing.T) {
	a := compileUnit(t, "a.c", "int g1, g2; void f(void) { g1 = g2; }")
	b := compileUnit(t, "b.c", "extern int g1; int h; void g(void) { h = g1; }")
	m1, err := Link([]*prim.Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	a2 := compileUnit(t, "a.c", "int g1, g2; void f(void) { g1 = g2; }")
	b2 := compileUnit(t, "b.c", "extern int g1; int h; void g(void) { h = g1; }")
	m2, err := Link([]*prim.Program{a2, b2})
	if err != nil {
		t.Fatal(err)
	}
	n1 := make([]string, len(m1.Syms))
	n2 := make([]string, len(m2.Syms))
	for i := range m1.Syms {
		n1[i] = m1.Syms[i].Name
	}
	for i := range m2.Syms {
		n2[i] = m2.Syms[i].Name
	}
	sort.Strings(n1)
	sort.Strings(n2)
	if strings.Join(n1, ",") != strings.Join(n2, ",") {
		t.Error("linking is not deterministic")
	}
}

// manyUnits compiles n synthetic translation units with cross-unit
// references: every unit defines its own globals and assigns through the
// shared pointer table, so link order is observable in the merged symbol
// table and assignment list.
func manyUnits(t *testing.T, n int) []*prim.Program {
	t.Helper()
	units := make([]*prim.Program, n)
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(`extern int *shared;
int obj%[1]d, *loc%[1]d;
void f%[1]d(void) { loc%[1]d = &obj%[1]d; shared = loc%[1]d; }`, i)
		if i == 0 {
			src = "int *shared;\n" + src
		}
		units[i] = compileUnit(t, fmt.Sprintf("u%d.c", i), src)
	}
	return units
}

func dumpProgram(t *testing.T, p *prim.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := objfile.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLinkParallelMatchesSequential(t *testing.T) {
	// LinkParallel is the fold under its old name: byte-identical to
	// Link for every worker count it is handed.
	for _, n := range []int{1, 2, 3, 7, 33} {
		units := manyUnits(t, n)
		seq, err := Link(units)
		if err != nil {
			t.Fatal(err)
		}
		want := dumpProgram(t, seq)
		for _, jobs := range []int{1, 2, 8} {
			// Link mutates nothing, so the same units can be relinked.
			par, err := LinkParallel(units, jobs)
			if err != nil {
				t.Fatalf("n=%d jobs=%d: %v", n, jobs, err)
			}
			if !bytes.Equal(want, dumpProgram(t, par)) {
				t.Errorf("n=%d jobs=%d: parallel link differs from sequential fold", n, jobs)
			}
		}
	}
	// A clashing unit fails the link at every worker count, wherever it
	// sits in the unit order.
	for _, bad := range []int{3, 4} {
		units := manyUnits(t, 5)
		clash := &prim.Program{}
		clash.AddSym(prim.Symbol{Name: "shared", Kind: prim.SymField})
		units[bad] = clash
		for _, jobs := range []int{1, 2, 8} {
			if _, err := LinkParallel(units, jobs); err == nil {
				t.Errorf("bad unit %d, jobs=%d: clash accepted", bad, jobs)
			}
		}
	}
}

// TestLinkSizesOutputOnce: the fold keeps every unit's assignments and
// call sites, in unit order, in slices sized once from the units' totals.
func TestLinkSizesOutputOnce(t *testing.T) {
	units := manyUnits(t, 7)
	units = append(units, compileUnit(t, "c.c", "int *p, x; int *g(int *q) { return q; }\nvoid f(void) { p = g(&x); }"))
	out, err := Link(units)
	if err != nil {
		t.Fatal(err)
	}
	var assigns, calls int
	for _, u := range units {
		assigns += len(u.Assigns)
		calls += len(u.Calls)
	}
	if len(out.Assigns) != assigns || cap(out.Assigns) != assigns {
		t.Errorf("assigns: len %d, cap %d; want %d", len(out.Assigns), cap(out.Assigns), assigns)
	}
	if len(out.Calls) != calls || cap(out.Calls) != calls {
		t.Errorf("calls: len %d, cap %d; want %d", len(out.Calls), cap(out.Calls), calls)
	}
	if empty, err := Link([]*prim.Program{{Syms: []prim.Symbol{{Name: "x", Kind: prim.SymGlobal}}}}); err != nil || empty.Assigns != nil || empty.Calls != nil {
		t.Errorf("no assignments or calls: %+v, %v", empty, err)
	}
}

// TestLinkUnitSymsCounter: link.unit_syms sums the units' symbol counts,
// and a shared header's declarations that neither unit uses are not in
// it: the units carry only the header entries they use.
func TestLinkUnitSymsCounter(t *testing.T) {
	units := map[string]string{
		"a.c": "#include \"h.h\"\nint *pa;\nvoid fa(void) { pa = &shared; }\n",
		"b.c": "#include \"h.h\"\nint *pb;\nvoid fb(void) { pb = get(); }\n",
	}
	used := "extern int shared;\nint *get(void);\n"
	var unused strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&unused, "extern int unused%d;\nint *unused_fn%d(int *p, int q);\n", i, i)
	}
	count := func(header string) (int64, int) {
		t.Helper()
		files := cpp.MapLoader{"h.h": header}
		var progs []*prim.Program
		var syms int
		for _, name := range []string{"a.c", "b.c"} {
			p, err := frontend.CompileSource(name, units[name], files, frontend.Options{})
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, p)
			syms += len(p.Syms)
		}
		o := obs.New()
		if _, err := LinkTraced(nil, progs, o); err != nil {
			t.Fatal(err)
		}
		return o.Counter("link.unit_syms").Value(), syms
	}
	lean, leanSyms := count(used)
	wide, wideSyms := count(used + unused.String())
	if lean != int64(leanSyms) || wide != int64(wideSyms) {
		t.Fatalf("link.unit_syms = %d and %d, want the units' sums %d and %d", lean, wide, leanSyms, wideSyms)
	}
	if wide != lean {
		t.Errorf("link.unit_syms = %d with 40 unused header declarations, %d without; want equal", wide, lean)
	}
}
