package extmodel_test

import (
	"cla/internal/pts"
	"context"
	"reflect"
	"sort"
	"testing"

	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/frontend"
	"cla/internal/linker"
	"cla/internal/prim"
)

// link compiles each unit and links them in name order.
func link(t *testing.T, units map[string]string) *prim.Program {
	t.Helper()
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	progs := make([]*prim.Program, len(names))
	for i, n := range names {
		p, err := frontend.CompileSource(n, units[n], nil, frontend.Options{})
		if err != nil {
			t.Fatalf("compile %s: %v", n, err)
		}
		progs[i] = p
	}
	p, err := linker.Link(progs)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return p
}

func solve(t *testing.T, p *prim.Program, s driver.Solver) ptsResult {
	t.Helper()
	res, err := driver.Analyze(context.Background(), pts.NewMemSource(p), s, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("solve %v: %v", s, err)
	}
	return ptsResult{p: p, names: func(id prim.SymID) []string {
		var out []string
		for _, z := range res.PointsTo(id) {
			out = append(out, p.Sym(z).Name)
		}
		sort.Strings(out)
		return out
	}}
}

type ptsResult struct {
	p     *prim.Program
	names func(prim.SymID) []string
}

func (r ptsResult) of(t *testing.T, name string) []string {
	t.Helper()
	id := r.p.SymIDByName(name)
	if id == prim.NoSym {
		t.Fatalf("no symbol %q", name)
	}
	return r.names(id)
}

func has(set []string, want string) bool {
	for _, s := range set {
		if s == want {
			return true
		}
	}
	return false
}

func TestUndefinedInventory(t *testing.T) {
	p := link(t, map[string]string{
		"a.c": `
			extern int *shared;
			extern char *lookup(char *key);
			int owned;
			void use(void) { shared = lookup(0); owned = 1; missing(); }
		`,
		"b.c": `
			int *shared;
			char *helper(void) { return 0; }
		`,
	})
	var funcs, globals []string
	for _, u := range extmodel.Undefined(p) {
		if u.Kind == prim.SymFunc {
			funcs = append(funcs, u.Name)
		} else {
			globals = append(globals, u.Name)
		}
	}
	// shared is defined in b.c, owned in a.c; lookup has no body anywhere
	// and missing is implicitly declared.
	if want := []string{"lookup", "missing"}; !reflect.DeepEqual(funcs, want) {
		t.Errorf("undefined funcs = %v, want %v", funcs, want)
	}
	if len(globals) != 0 {
		t.Errorf("undefined globals = %v, want none", globals)
	}

	p2 := link(t, map[string]string{
		"a.c": `extern int *env; int *get(void) { return env; }`,
	})
	u := extmodel.Undefined(p2)
	if len(u) != 1 || u[0].Name != "env" || u[0].Kind != prim.SymGlobal {
		t.Errorf("undefined = %+v, want the extern global env", u)
	}
}

func TestApplyUnsoundIsNoop(t *testing.T) {
	p := link(t, map[string]string{
		"a.c": `extern int *fetch(void); int *g; void f(void) { g = fetch(); }`,
	})
	syms, assigns, funcs := len(p.Syms), len(p.Assigns), len(p.Funcs)
	info := extmodel.Apply(p, extmodel.Unsound)
	if info.Ext != prim.NoSym || info.Syms != 0 || info.Assigns != 0 {
		t.Errorf("unsound Apply reported changes: %+v", info)
	}
	if len(p.Syms) != syms || len(p.Assigns) != assigns || len(p.Funcs) != funcs {
		t.Errorf("unsound Apply mutated the program")
	}
}

// TestBlanketReturnAndEscape is the core blanket semantics: a pointer
// assigned only from an undefined function points to the external world,
// and arguments passed to undefined functions escape into it.
func TestBlanketReturnAndEscape(t *testing.T) {
	src := map[string]string{
		"a.c": `
			extern char *ext_dup(char *s);
			extern void ext_keep(int *p);
			char *r;
			int kept;
			void f(void) { r = ext_dup(0); ext_keep(&kept); }
		`,
	}
	for _, m := range []extmodel.Model{extmodel.Blanket, extmodel.Escape} {
		p := link(t, src)
		info := extmodel.Apply(p, m)
		if info.UndefFuncs != 2 {
			t.Fatalf("%v: UndefFuncs = %d, want 2", m, info.UndefFuncs)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: validate after Apply: %v", m, err)
		}
		r := solve(t, p, driver.PreTransitive)
		if got := r.of(t, "r"); !has(got, extmodel.ExtName) {
			t.Errorf("%v: pts(r) = %v, want %s", m, got, extmodel.ExtName)
		}
		if got := r.names(info.Ext); !has(got, "kept") {
			t.Errorf("%v: pts(ext) = %v, want kept (escaped argument)", m, got)
		}
	}

	// Unsound leaves both empty.
	p := link(t, src)
	extmodel.Apply(p, extmodel.Unsound)
	r := solve(t, p, driver.PreTransitive)
	if got := r.of(t, "r"); len(got) != 0 {
		t.Errorf("unsound: pts(r) = %v, want empty", got)
	}
}

// TestBlanketUndefinedGlobal: an extern global never defined in any unit
// may hold the external object and anything that escaped.
func TestBlanketUndefinedGlobal(t *testing.T) {
	src := map[string]string{
		"a.c": `
			extern void ext_reg(char *p);
			extern char *ext_tab;
			char buf[8];
			char *q;
			void f(void) { ext_reg(buf); q = ext_tab; }
		`,
	}
	p := link(t, src)
	extmodel.Apply(p, extmodel.Blanket)
	r := solve(t, p, driver.PreTransitive)
	got := r.of(t, "q")
	if !has(got, extmodel.ExtName) {
		t.Errorf("pts(q) = %v, want %s", got, extmodel.ExtName)
	}
	// buf escaped through ext_reg, so reading ext_tab may yield it.
	if !has(got, "buf") {
		t.Errorf("pts(q) = %v, want escaped buf", got)
	}
}

// TestEscapeMutualAliasing: two pointers whose addresses were passed to an
// unknown function become aliased under Escape but not under Blanket.
func TestEscapeMutualAliasing(t *testing.T) {
	src := map[string]string{
		"a.c": `
			extern void ext_track(int **h);
			int g1, g2;
			int *p1, *p2;
			void f(void) { p1 = &g1; p2 = &g2; ext_track(&p1); ext_track(&p2); }
		`,
	}
	p := link(t, src)
	extmodel.Apply(p, extmodel.Blanket)
	r := solve(t, p, driver.PreTransitive)
	if got := r.of(t, "p1"); has(got, "g2") {
		t.Errorf("blanket: pts(p1) = %v, must not contain g2", got)
	}

	p = link(t, src)
	extmodel.Apply(p, extmodel.Escape)
	r = solve(t, p, driver.PreTransitive)
	got1, got2 := r.of(t, "p1"), r.of(t, "p2")
	if !has(got1, "g2") || !has(got2, "g1") {
		t.Errorf("escape: pts(p1) = %v, pts(p2) = %v, want mutual {g1,g2}", got1, got2)
	}
}

// TestIndirectCallThroughUndefined: calls through a pointer holding an
// undefined function still see escaping arguments and an external result,
// via the synthesized return symbol on the undefined function's record.
func TestIndirectCallThroughUndefined(t *testing.T) {
	src := map[string]string{
		"a.c": `
			extern char *ext_fetch(char *key);
			char *(*hook)(char *);
			char slot;
			char *got;
			void f(void) { hook = ext_fetch; got = hook(&slot); }
		`,
	}
	p := link(t, src)
	info := extmodel.Apply(p, extmodel.Blanket)
	r := solve(t, p, driver.PreTransitive)
	if got := r.of(t, "got"); !has(got, extmodel.ExtName) {
		t.Errorf("pts(got) = %v, want %s via indirect call", got, extmodel.ExtName)
	}
	if got := r.names(info.Ext); !has(got, "slot") {
		t.Errorf("pts(ext) = %v, want slot (argument escaped indirectly)", got)
	}
}

// TestExternalFunctionPointers: a function pointer loaded from an
// undefined global may target external code; calling it must not lose
// soundness — its result is external and its arguments escape.
func TestExternalFunctionPointers(t *testing.T) {
	src := map[string]string{
		"a.c": `
			extern void *(*ext_hook)(void *);
			void *r;
			int cell;
			void f(void) { r = ext_hook(&cell); }
		`,
	}
	p := link(t, src)
	info := extmodel.Apply(p, extmodel.Blanket)
	r := solve(t, p, driver.PreTransitive)
	hook := r.of(t, "ext_hook")
	if !has(hook, extmodel.ExtFnName) {
		t.Errorf("pts(ext_hook) = %v, want %s", hook, extmodel.ExtFnName)
	}
	if got := r.of(t, "r"); !has(got, extmodel.ExtName) {
		t.Errorf("pts(r) = %v, want %s", got, extmodel.ExtName)
	}
	if got := r.names(info.Ext); !has(got, "cell") {
		t.Errorf("pts(ext) = %v, want cell", got)
	}
}

// TestMonotone: adding a model only ever grows points-to sets, and escape
// subsumes blanket, for every original symbol under the subset solvers.
func TestMonotone(t *testing.T) {
	src := map[string]string{
		"a.c": `
			extern int *ext_pick(int *a, int *b);
			extern int *ext_cur;
			int x, y;
			int *p, *q;
			void f(void) { p = ext_pick(&x, &y); q = ext_cur; if (x) q = &x; }
		`,
		"b.c": `
			int *mine(int *v) { return v; }
			int *r;
			int z;
			void g(void) { r = mine(&z); }
		`,
	}
	for _, s := range []driver.Solver{driver.PreTransitive, driver.Worklist, driver.BitVector} {
		base := link(t, src)
		n := len(base.Syms)
		var prev ptsResult
		for i, m := range extmodel.Models() {
			p := link(t, src)
			extmodel.Apply(p, m)
			r := solve(t, p, s)
			if i > 0 {
				for id := 0; id < n; id++ {
					lo, hi := prev.names(prim.SymID(id)), r.names(prim.SymID(id))
					for _, v := range lo {
						if !has(hi, v) {
							t.Errorf("%v: pts(%s) lost %q going to %v", s, base.Sym(prim.SymID(id)).Name, v, m)
						}
					}
				}
			}
			prev = r
		}
	}
}

func TestApplyClone(t *testing.T) {
	p := link(t, map[string]string{
		"a.c": `extern int *take(void); int *g; void f(void) { g = take(); }`,
	})
	syms, assigns := len(p.Syms), len(p.Assigns)
	q, info := extmodel.ApplyClone(p, extmodel.Escape)
	if len(p.Syms) != syms || len(p.Assigns) != assigns {
		t.Fatalf("ApplyClone mutated the original program")
	}
	for i := range p.Funcs {
		if p.Funcs[i].Ret != prim.NoSym {
			s := p.Sym(p.Funcs[i].Ret)
			if s.Kind != prim.SymRet {
				t.Fatalf("original func record %d ret corrupted", i)
			}
		}
	}
	if info.Ext == prim.NoSym || len(q.Syms) <= syms {
		t.Fatalf("clone not extended: info=%+v", info)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("validate clone: %v", err)
	}
}

func TestParseModel(t *testing.T) {
	for in, want := range map[string]extmodel.Model{
		"": extmodel.Unsound, "unsound": extmodel.Unsound,
		"blanket": extmodel.Blanket, "escape": extmodel.Escape,
	} {
		got, err := extmodel.ParseModel(in)
		if err != nil || got != want {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := extmodel.ParseModel("open-world"); err == nil {
		t.Errorf("ParseModel accepted an unknown model")
	}
}
