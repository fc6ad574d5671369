package linker

import (
	"reflect"
	"slices"
	"testing"

	"cla/internal/prim"
)

// relinkMatchesFold relinks units over prev and requires the result to
// equal a full fold of units: the programs resolved alike, the remap
// tables deep-equal, the splice's own index equal and its string maps
// naming the same strings, or the same error. It returns the relinked
// fold (nil on error).
func relinkMatchesFold(t *testing.T, prev *Fold, units []*prim.Program) *Fold {
	t.Helper()
	got, gerr := Relink(prev, units)
	want, werr := fold(units)
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("relink error %v, fold error %v", gerr, werr)
		}
		return nil
	}
	if err := got.Prog.Validate(); err != nil {
		t.Fatalf("spliced %v: %v", got.Spliced, err)
	}
	if g, w := got.Prog.Canonical(), want.Prog.Canonical(); !reflect.DeepEqual(g, w) {
		t.Fatalf("spliced %v: program differs from the fold:\n%+v\nvs\n%+v", got.Spliced, g, w)
	}
	if got.Prog.Digest() != want.Prog.Digest() {
		t.Fatalf("spliced %v: digest differs from the fold's", got.Spliced)
	}
	for u, m := range want.strMaps {
		for k, id := range m {
			if g, w := got.Prog.Str(got.strMaps[u][k]), want.Prog.Str(id); g != w {
				t.Fatalf("spliced %v: unit %d string %d maps to %q, fold %q", got.Spliced, u, k, g, w)
			}
		}
	}
	if !reflect.DeepEqual(got.Remaps, want.Remaps) {
		t.Fatalf("spliced %v: remaps %v, fold %v", got.Spliced, got.Remaps, want.Remaps)
	}
	if !slices.Equal(got.refs, want.refs) || !slices.Equal(got.own, want.own) || !slices.Equal(got.ends, want.ends) {
		t.Fatalf("spliced %v: index refs %v own %v ends %v, fold %v %v %v", got.Spliced,
			got.refs, got.own, got.ends, want.refs, want.own, want.ends)
	}
	return got
}

// TestRelinkSplice replaces one unit of a small program and requires the
// relink to equal the fold, spliced exactly where the fold's result
// follows from the changed unit alone.
func TestRelinkSplice(t *testing.T) {
	const (
		a = "int shared;\nint *pa = &shared;\nvoid f(int v);\nvoid ga(void) { f(1); }\n"
		b = "extern int shared;\nint *pb = &shared;\nvoid f(int v) { pb = &shared; }\n"
		c = "int late;\nextern int shared;\nint **pc = &pb;\n"
	)
	kindConflict := func(kind prim.SymKind) *prim.Program {
		return &prim.Program{Syms: []prim.Symbol{{Name: "k", Kind: kind}, {Name: "t", Kind: prim.SymTemp}},
			Assigns: []prim.Assign{{Kind: prim.Base, Dst: 1, Src: 0}}}
	}
	typed := func(typ string) *prim.Program {
		return &prim.Program{Syms: []prim.Symbol{{Name: "g", Kind: prim.SymGlobal, Type: typ}}}
	}
	badParam := &prim.Program{Syms: []prim.Symbol{{Name: "h", Kind: prim.SymFunc}},
		Funcs: []prim.FuncRecord{{Func: 0, Params: []prim.SymID{3}, Ret: prim.NoSym}}}
	for _, tc := range []struct {
		name    string
		units   []*prim.Program
		at      int
		next    *prim.Program
		spliced bool
	}{
		{"edit loop", nil, 1, nil, true},
		{"first unit", nil, 0, compileUnit(t, "a.c", a+"int first_g;\nint *first_p = &first_g;\n"), true},
		{"first unit takes a later global", nil, 0, compileUnit(t, "a.c", a+"int bench_g0;\n"), false},
		{"last unit", nil, 2, compileUnit(t, "c.c", c+"int *pl = &late;\n"), true},
		{"line shift", nil, 1, compileUnit(t, "b.c", "\n\n"+b), true},
		{"global an earlier unit adds", nil, 2, compileUnit(t, "c.c", c+"int *ps = &shared;\n"), true},
		{"defined where an earlier unit declares", []*prim.Program{
			compileUnit(t, "a.c", "extern int e;\nint *pa = &e;\n"), compileUnit(t, "b.c", "int x;\n")},
			1, compileUnit(t, "b.c", "int x;\nint e;\n"), true},
		{"declared where it was defined", []*prim.Program{
			compileUnit(t, "a.c", "extern int e;\nint *pa = &e;\n"), compileUnit(t, "b.c", "int e;\n")},
			1, compileUnit(t, "b.c", "extern int e;\nint *pb = &e;\n"), false},
		{"first unit drops a shared global", nil, 0, compileUnit(t, "a.c", "void f(int v);\nvoid ga(void) { f(1); }\n"), false},
		{"unit takes a later global", nil, 1, compileUnit(t, "b.c", b+"int *pl = &late;\n"), false},
		{"function body edit", nil, 1, compileUnit(t, "b.c", "extern int shared;\nint *pb = &shared;\nvoid f(int v) { pb = 0; }\n"), true},
		{"signature merge changes", nil, 1, compileUnit(t, "b.c", "extern int shared;\nint *pb = &shared;\nvoid f(int v, int w) { pb = &shared; }\n"), false},
		{"new record of an earlier function", nil, 2, compileUnit(t, "c.c", c+"void f(int v);\nvoid gc(void) { f(2); }\n"), false},
		{"new function", nil, 2, compileUnit(t, "c.c", c+"int *h(int *q) { return q; }\n"), true},
		{"first unit drops a type a later unit has", []*prim.Program{typed("int"), typed("char *")}, 0, typed(""), false},
		{"first unit changes its type", []*prim.Program{typed("int"), typed("char *")}, 0, typed("long"), true},
		{"kind conflict", []*prim.Program{kindConflict(prim.SymGlobal), kindConflict(prim.SymGlobal)},
			1, kindConflict(prim.SymField), false},
		{"bad record", nil, 1, badParam, false},
		{"unit with no symbols", nil, 1, &prim.Program{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			units := tc.units
			if units == nil {
				units = []*prim.Program{compileUnit(t, "a.c", a),
					compileUnit(t, "b.c", b+"int bench_g0;\nint *bench_p0 = &bench_g0;\n"),
					compileUnit(t, "c.c", c)}
			}
			next := tc.next
			if next == nil {
				next = compileUnit(t, "b.c", b+"int bench_g1;\nint *bench_p1 = &bench_g1;\n")
			}
			prev, err := fold(units)
			if err != nil {
				t.Fatal(err)
			}
			edited := slices.Clone(units)
			edited[tc.at] = next
			got := relinkMatchesFold(t, prev, edited)
			if spliced := got != nil && got.Spliced; spliced != tc.spliced {
				t.Fatalf("spliced = %v, want %v", spliced, tc.spliced)
			}
			if got == nil {
				return
			}
			// The splice's index serves the next splice: edit back.
			if again := relinkMatchesFold(t, got, units); again == nil {
				t.Fatal("relinking the original units failed")
			}
		})
	}
}

// TestRelinkUnchangedUnits: a relink over the programs the previous fold
// linked, or equal copies of them, is one unit's splice only when
// exactly one program differs; otherwise it folds.
func TestRelinkUnchangedUnits(t *testing.T) {
	units := []*prim.Program{compileUnit(t, "a.c", "int x;\n"), compileUnit(t, "b.c", "int *p = &x;\n"), compileUnit(t, "c.c", "int y;\n")}
	prev, err := fold(units)
	if err != nil {
		t.Fatal(err)
	}
	copyB := compileUnit(t, "b.c", "int *p = &x;\n")
	for _, tc := range []struct {
		name    string
		units   []*prim.Program
		spliced bool
	}{
		{"same programs", units, false},
		{"an equal copy and an edit", []*prim.Program{units[0], copyB, compileUnit(t, "c.c", "int y, z;\n")}, true},
		{"two edits", []*prim.Program{compileUnit(t, "a.c", "int x, w;\n"), units[1], compileUnit(t, "c.c", "int y, z;\n")}, false},
		{"a unit fewer", units[:2], false},
	} {
		got := relinkMatchesFold(t, prev, tc.units)
		if got.Spliced != tc.spliced {
			t.Errorf("%s: spliced = %v, want %v", tc.name, got.Spliced, tc.spliced)
		}
	}
}

// genSrc reads a fuzz input one byte at a time, zeros past its end.
type genSrc struct {
	b []byte
	i int
}

func (g *genSrc) next() int {
	if g.i >= len(g.b) {
		return 0
	}
	g.i++
	return int(g.b[g.i-1])
}

// genPool is the names and kinds generated units draw symbols from: a
// few of each by-name kind, so units share them, and internal ones.
var genPool = []prim.Symbol{
	{Name: "g0", Kind: prim.SymGlobal}, {Name: "g1", Kind: prim.SymGlobal}, {Name: "g2", Kind: prim.SymGlobal},
	{Name: "f0", Kind: prim.SymFunc}, {Name: "f1", Kind: prim.SymFunc},
	{Name: "f0$1", Kind: prim.SymParam}, {Name: "f0$2", Kind: prim.SymParam}, {Name: "f1$ret", Kind: prim.SymRet},
	{Name: "S::a", Kind: prim.SymField}, {Name: "l", Kind: prim.SymLocal}, {Name: "t", Kind: prim.SymTemp},
	{Name: "s", Kind: prim.SymStatic},
}

// genStrs is the strings generated records name: files and functions.
var genStrs = []string{"a.h", "b.c", "f0", "f1"}

// genStr draws a string id of p, interning a pool string into its
// table, and now and then one past the table.
func genStr(g *genSrc, p *prim.Program) prim.Str {
	b := g.next()
	if b == 254 {
		return prim.Str(len(p.Strs) + 1)
	}
	if b%5 == 4 {
		return 0
	}
	return p.Intern(genStrs[b%5])
}

// genSym draws one symbol of p: a pool entry with random attributes
// and, now and then, a kind that conflicts or internal linkage.
func genSym(g *genSrc, p *prim.Program) prim.Symbol {
	s := genPool[g.next()%len(genPool)]
	a := g.next()
	if a&1 != 0 {
		s.Type = []string{"int", "char *"}[a>>1&1]
	}
	if a&4 != 0 {
		s.Loc = prim.Loc{File: p.Intern(genStrs[a>>3&1]), Line: int32(1 + a>>3&1)}
	}
	s.FuncPtr = a&16 != 0
	s.Defined = a&32 != 0
	switch a >> 6 {
	case 2:
		if s.Kind == prim.SymGlobal {
			s.Kind = prim.SymFunc // compatible
		}
	case 3:
		if g.next()%2 == 0 {
			s.Kind = prim.SymField // conflicts with a global or function
		} else {
			s.Internal = true
		}
	}
	return s
}

// genID draws a symbol index of a unit with n symbols, now and then one
// out of range.
func genID(g *genSrc, n int) prim.SymID {
	b := g.next()
	if b == 255 {
		return prim.SymID(n)
	}
	return prim.SymID(b % n)
}

// genRecord draws one function record over n symbols.
func genRecord(g *genSrc, n int) prim.FuncRecord {
	r := prim.FuncRecord{Func: genID(g, n), Ret: prim.NoSym}
	b := g.next()
	for k := 0; k < b%3; k++ {
		r.Params = append(r.Params, genID(g, n))
	}
	if b&4 != 0 {
		r.Ret = genID(g, n)
	}
	r.Variadic = b&8 != 0
	return r
}

// genUnit draws one unit program.
func genUnit(g *genSrc) *prim.Program {
	p := &prim.Program{}
	n := 1 + g.next()%6
	for i := 0; i < n; i++ {
		p.Syms = append(p.Syms, genSym(g, p))
	}
	for k := g.next() % 4; k > 0; k-- {
		p.Assigns = append(p.Assigns, prim.Assign{Kind: prim.Kind(g.next() % prim.NumKinds), Dst: genID(g, n), Src: genID(g, n),
			Func: genStr(g, p)})
	}
	for k := g.next() % 2; k > 0; k-- {
		p.Calls = append(p.Calls, prim.CallSite{Callee: genID(g, n), Caller: p.Intern("f0"),
			Loc: prim.Loc{File: genStr(g, p), Line: 3}, Args: 1})
	}
	for k := g.next() % 3; k > 0; k-- {
		p.Funcs = append(p.Funcs, genRecord(g, n))
	}
	return p
}

// genEdit returns a copy of p with one edit: a new unit, an added or
// dropped last symbol, a symbol's attributes redrawn, an assignment
// added or dropped, or a record added, dropped or redrawn.
func genEdit(g *genSrc, p *prim.Program) *prim.Program {
	q := &prim.Program{Syms: slices.Clone(p.Syms), Assigns: slices.Clone(p.Assigns),
		Calls: slices.Clone(p.Calls), Funcs: slices.Clone(p.Funcs), Strs: p.Strs}
	n := len(q.Syms)
	switch g.next() % 7 {
	case 0:
		return genUnit(g)
	case 1:
		q.Syms = append(q.Syms, genSym(g, q))
		q.Assigns = append(q.Assigns, prim.Assign{Kind: prim.Base, Dst: genID(g, n+1), Src: prim.SymID(n)})
	case 2:
		if n < 2 {
			return genUnit(g)
		}
		last := prim.SymID(n - 1)
		q.Syms = q.Syms[:n-1]
		q.Assigns = slices.DeleteFunc(q.Assigns, func(a prim.Assign) bool { return a.Dst == last || a.Src == last })
		q.Calls = slices.DeleteFunc(q.Calls, func(c prim.CallSite) bool { return c.Callee == last })
		q.Funcs = slices.DeleteFunc(q.Funcs, func(r prim.FuncRecord) bool {
			return r.Func == last || r.Ret == last || slices.Contains(r.Params, last)
		})
	case 3:
		k := g.next() % n
		s := genSym(g, q)
		s.Name, s.Kind = q.Syms[k].Name, q.Syms[k].Kind
		q.Syms[k] = s
	case 4:
		q.Assigns = append(q.Assigns, prim.Assign{Kind: prim.Simple, Dst: genID(g, n), Src: genID(g, n),
			Loc: prim.Loc{File: genStr(g, q), Line: 5}, Func: genStr(g, q)})
	case 5:
		if len(q.Assigns) > 0 {
			q.Assigns = q.Assigns[:len(q.Assigns)-1]
		}
	default:
		switch k := g.next(); {
		case len(q.Funcs) == 0 || k%3 == 0:
			q.Funcs = append(q.Funcs, genRecord(g, n))
		case k%3 == 1:
			q.Funcs = q.Funcs[:len(q.Funcs)-1]
		default:
			q.Funcs[k%len(q.Funcs)] = genRecord(g, n)
		}
	}
	return q
}

// FuzzLinkSplice draws up to four small units over a shared pool of
// names, then a run of edits, each replacing one unit with an edited
// copy of itself or a new unit, and requires every relink over the
// previous fold to equal a full fold of the edited units: program,
// remap tables and the splice's index, or the fold's error. The pool
// makes units share globals, functions, parameters and fields, so the
// edits move a symbol's first unit, drop and add globals, change merged
// attributes and function records, and conflict on kinds.
func FuzzLinkSplice(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1, 3, 4, 17, 2, 1, 0, 1, 1, 1, 5, 1, 2, 9, 3, 2, 4, 1, 0, 2})
	f.Add([]byte{3, 1, 2, 5, 33, 0, 2, 2, 0, 2, 2, 3, 7, 0, 5, 2, 1, 1, 4, 1, 6, 0, 1, 3})
	f.Add([]byte{1, 4, 5, 0, 2, 1, 4, 1, 0, 0, 0, 5, 200, 1, 3, 6, 1, 2, 3})
	f.Add([]byte{3, 2, 0, 45, 3, 21, 1, 1, 3, 2, 1, 6, 2, 0, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{2, 5, 3, 3, 8, 4, 5, 5, 4, 1, 2, 2, 1, 0, 1, 1, 6, 0, 0, 1, 2, 1, 0, 7, 255, 1})
	// A new unit with one global twice, and an old unit with two records
	// for one function: each spliced wrongly before it fell back.
	f.Add([]byte("010\xff020001010011"))
	f.Add([]byte("01001000202000000210"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip()
		}
		g := &genSrc{b: data}
		units := make([]*prim.Program, 1+g.next()%4)
		for i := range units {
			units[i] = genUnit(g)
		}
		prev, _ := fold(units) // nil on a kind conflict: the next relink folds
		for k := 0; k < 4 && g.i < len(g.b); k++ {
			c := g.next() % len(units)
			units = slices.Clone(units)
			units[c] = genEdit(g, units[c])
			prev = relinkMatchesFold(t, prev, units)
		}
	})
}
