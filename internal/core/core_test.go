package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cla/internal/frontend"
	"cla/internal/objfile"
	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/pts/steens"
	"cla/internal/pts/worklist"
)

// solveSrc compiles C source and runs the pre-transitive solver.
func solveSrc(t *testing.T, src string, cfg Config) (*prim.Program, *Result) {
	t.Helper()
	p, err := frontend.CompileSource("t.c", src, nil, frontend.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := Solve(pts.NewMemSource(p), cfg)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return p, res
}

// ptsOf returns the names of objects that name may point to.
func ptsOf(p *prim.Program, r pts.Result, name string) []string {
	id := p.SymIDByName(name)
	if id == prim.NoSym {
		return nil
	}
	var out []string
	for _, z := range r.PointsTo(id) {
		out = append(out, p.Sym(z).Name)
	}
	return out
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPaperFigure3(t *testing.T) {
	// int x, *y; int **z; z = &y; *z = &x; derives y -> &x.
	src := `int x, *y; int **z;
void m(void) { z = &y; *z = &x; }`
	p, r := solveSrc(t, src, DefaultConfig())
	if got := ptsOf(p, r, "z"); !eq(got, []string{"y"}) {
		t.Errorf("pts(z) = %v", got)
	}
	if got := ptsOf(p, r, "y"); !eq(got, []string{"x"}) {
		t.Errorf("pts(y) = %v, want [x]", got)
	}
}

func TestBasicFlow(t *testing.T) {
	src := `int a, b, *p, *q;
void m(void) { p = &a; q = p; p = &b; }`
	p, r := solveSrc(t, src, DefaultConfig())
	if got := ptsOf(p, r, "q"); !eq(got, []string{"a", "b"}) {
		t.Errorf("pts(q) = %v", got)
	}
}

func TestFlowInsensitivityOrderIndependence(t *testing.T) {
	// q = p before p = &a must still see &a (flow-insensitive).
	src := `int a, *p, *q;
void m(void) { q = p; p = &a; }`
	p, r := solveSrc(t, src, DefaultConfig())
	if got := ptsOf(p, r, "q"); !eq(got, []string{"a"}) {
		t.Errorf("pts(q) = %v", got)
	}
}

func TestStoreThenLoad(t *testing.T) {
	src := `int v, *a, *b, **pp;
void m(void) { pp = &a; *pp = &v; b = *pp; }`
	p, r := solveSrc(t, src, DefaultConfig())
	if got := ptsOf(p, r, "a"); !eq(got, []string{"v"}) {
		t.Errorf("pts(a) = %v", got)
	}
	if got := ptsOf(p, r, "b"); !eq(got, []string{"v"}) {
		t.Errorf("pts(b) = %v", got)
	}
}

func TestCycle(t *testing.T) {
	src := `int v, *p, *q, *r;
void m(void) { p = q; q = r; r = p; q = &v; }`
	p, r := solveSrc(t, src, DefaultConfig())
	for _, name := range []string{"p", "q", "r"} {
		if got := ptsOf(p, r, name); !eq(got, []string{"v"}) {
			t.Errorf("pts(%s) = %v", name, got)
		}
	}
	if r.Metrics().Unifications == 0 {
		t.Error("cycle not unified")
	}
}

func TestSelfLoop(t *testing.T) {
	src := `int v, *p;
void m(void) { p = p; p = &v; }`
	p, r := solveSrc(t, src, DefaultConfig())
	if got := ptsOf(p, r, "p"); !eq(got, []string{"v"}) {
		t.Errorf("pts(p) = %v", got)
	}
}

func TestFunctionParamReturnFlow(t *testing.T) {
	src := `int g1, g2;
int *id(int *v) { return v; }
int *r1, *r2;
void m(void) { r1 = id(&g1); r2 = id(&g2); }`
	p, r := solveSrc(t, src, DefaultConfig())
	// Context-insensitive: both results see both globals.
	if got := ptsOf(p, r, "r1"); !eq(got, []string{"g1", "g2"}) {
		t.Errorf("pts(r1) = %v", got)
	}
	if got := ptsOf(p, r, "r2"); !eq(got, []string{"g1", "g2"}) {
		t.Errorf("pts(r2) = %v", got)
	}
}

func TestIndirectCallLinking(t *testing.T) {
	src := `int obj;
int *get(int *a) { return a; }
int *(*fp)(int *);
int *res;
void m(void) { fp = get; res = fp(&obj); }`
	p, r := solveSrc(t, src, DefaultConfig())
	if got := ptsOf(p, r, "fp"); !eq(got, []string{"get"}) {
		t.Errorf("pts(fp) = %v", got)
	}
	if got := ptsOf(p, r, "res"); !eq(got, []string{"obj"}) {
		t.Errorf("pts(res) = %v", got)
	}
	// The callee's parameter received the argument.
	if got := ptsOf(p, r, "a"); !eq(got, []string{"obj"}) {
		t.Errorf("pts(a) = %v", got)
	}
}

func TestIndirectCallMultipleTargets(t *testing.T) {
	src := `int o1, o2;
int *f1(int *a) { return a; }
int *f2(int *b) { return b; }
int *(*fp)(int *);
int *res;
void m(int c) {
	if (c) fp = f1; else fp = f2;
	res = fp(&o1);
}`
	p, r := solveSrc(t, src, DefaultConfig())
	if got := ptsOf(p, r, "fp"); !eq(got, []string{"f1", "f2"}) {
		t.Errorf("pts(fp) = %v", got)
	}
	if got := ptsOf(p, r, "res"); !eq(got, []string{"o1"}) {
		t.Errorf("pts(res) = %v", got)
	}
	if got := ptsOf(p, r, "b"); !eq(got, []string{"o1"}) {
		t.Errorf("pts(b) = %v", got)
	}
}

func TestMallocSites(t *testing.T) {
	src := `void *malloc(unsigned long);
int *p, *q;
void m(void) {
	p = malloc(4);
	q = malloc(4);
}`
	p, r := solveSrc(t, src, DefaultConfig())
	pp := ptsOf(p, r, "p")
	qq := ptsOf(p, r, "q")
	if len(pp) != 1 || len(qq) != 1 || eq(pp, qq) {
		t.Errorf("pts(p)=%v pts(q)=%v: malloc sites must be distinct", pp, qq)
	}
}

func TestFieldBasedPointsTo(t *testing.T) {
	// The Section 3 example: field-based gives p and r &z, not q and s.
	src := `struct S { int *x; int *y; } A, B;
int z;
void m(void) {
	int *p, *q, *r, *s;
	A.x = &z;
	p = A.x;
	q = A.y;
	r = B.x;
	s = B.y;
}`
	p, r := solveSrc(t, src, DefaultConfig())
	if got := ptsOf(p, r, "p"); !eq(got, []string{"z"}) {
		t.Errorf("pts(p) = %v", got)
	}
	if got := ptsOf(p, r, "q"); got != nil {
		t.Errorf("pts(q) = %v, want empty", got)
	}
	if got := ptsOf(p, r, "r"); !eq(got, []string{"z"}) {
		t.Errorf("pts(r) = %v", got)
	}
	if got := ptsOf(p, r, "s"); got != nil {
		t.Errorf("pts(s) = %v, want empty", got)
	}
}

func TestCopyIndirect(t *testing.T) {
	src := `int v, *a, *b, **p, **q;
void m(void) { p = &a; q = &b; a = &v; *q = *p; }`
	p, r := solveSrc(t, src, DefaultConfig())
	if got := ptsOf(p, r, "b"); !eq(got, []string{"v"}) {
		t.Errorf("pts(b) = %v", got)
	}
}

func TestDemandLoadingSkipsIrrelevant(t *testing.T) {
	// Large irrelevant chain: x1 = x2 = ... never points anywhere, so
	// their blocks must not be loaded.
	src := `int x1, x2, x3, x4, x5, x6, x7, x8;
int v, *p, *q;
void m(void) {
	x1 = x2; x2 = x3; x3 = x4; x4 = x5;
	x5 = x6; x6 = x7; x7 = x8;
	p = &v;
	q = p;
}`
	_, r := solveSrc(t, src, DefaultConfig())
	m := r.Metrics()
	// Loaded should cover the p/q chain and statics, not the x chain.
	if m.Loaded >= m.InFile {
		t.Errorf("demand loading ineffective: loaded %d of %d", m.Loaded, m.InFile)
	}
	if m.Relations == 0 {
		t.Error("no relations computed")
	}
}

func TestAllConfigsAgree(t *testing.T) {
	src := `
struct S { int *f; struct S *next; };
struct S s1, s2, *cur;
int a, b, c;
int *pick(int *x, int *y) { if (a) return x; return y; }
int *(*sel)(int *, int *);
void m(void) {
	int *l1, *l2;
	cur = &s1;
	cur->next = &s2;
	cur = cur->next;
	cur->f = &a;
	l1 = cur->f;
	sel = pick;
	l2 = sel(&b, &c);
	*(&l1) = l2;
}`
	configs := []Config{
		{Cache: true, CycleElim: true, DemandLoad: true},
		{Cache: true, CycleElim: true, DemandLoad: false},
		{Cache: false, CycleElim: true, DemandLoad: true},
		{Cache: true, CycleElim: false, DemandLoad: true},
		{Cache: false, CycleElim: false, DemandLoad: false},
	}
	p, base := solveSrc(t, src, DefaultConfig())
	names := []string{"cur", "l1", "l2", "sel", "S.f", "S.next"}
	for _, cfg := range configs {
		_, r := solveSrc(t, src, cfg)
		for _, n := range names {
			if got, want := ptsOf(p, r, n), ptsOf(p, base, n); !eq(got, want) {
				t.Errorf("config %+v: pts(%s) = %v, want %v", cfg, n, got, want)
			}
		}
	}
}

// randomProgram builds a random assignment database for property testing.
func randomProgram(rng *rand.Rand, nsyms, nassign int) *prim.Program {
	p := &prim.Program{}
	for i := 0; i < nsyms; i++ {
		p.AddSym(prim.Symbol{Name: fmt.Sprintf("v%d", i), Kind: prim.SymGlobal, Type: "int*"})
	}
	for i := 0; i < nassign; i++ {
		a := prim.Assign{
			Kind:     prim.Kind(rng.Intn(prim.NumKinds)),
			Dst:      prim.SymID(rng.Intn(nsyms)),
			Src:      prim.SymID(rng.Intn(nsyms)),
			Op:       prim.OpCopy,
			Strength: prim.Strong,
		}
		p.AddAssign(a)
	}
	return p
}

// TestCoreMatchesWorklistOnRandomPrograms is the central correctness
// property: the pre-transitive solver (in every configuration) computes
// exactly the same points-to sets as the baseline transitive-closure
// solver.
func TestCoreMatchesWorklistOnRandomPrograms(t *testing.T) {
	configs := []Config{
		{Cache: true, CycleElim: true, DemandLoad: true},
		{Cache: true, CycleElim: true, DemandLoad: false},
		{Cache: false, CycleElim: true, DemandLoad: true},
		{Cache: true, CycleElim: false, DemandLoad: true},
		{Cache: false, CycleElim: false, DemandLoad: true},
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nsyms := 3 + rng.Intn(15)
		prog := randomProgram(rng, nsyms, 5+rng.Intn(40))
		src := pts.NewMemSource(prog)
		want, err := worklist.Solve(context.Background(), src, 1)
		if err != nil {
			t.Fatalf("seed %d: worklist: %v", seed, err)
		}
		for ci, cfg := range configs {
			cfg.MaxPasses = 10000
			got, err := Solve(pts.NewMemSource(prog), cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %d: %v", seed, ci, err)
			}
			for i := 0; i < nsyms; i++ {
				id := prim.SymID(i)
				g := got.PointsTo(id)
				w := want.PointsTo(id)
				if len(g) != len(w) {
					t.Fatalf("seed %d cfg %d: pts(v%d) = %v, want %v",
						seed, ci, i, g, w)
				}
				for j := range g {
					if g[j] != w[j] {
						t.Fatalf("seed %d cfg %d: pts(v%d) = %v, want %v",
							seed, ci, i, g, w)
					}
				}
			}
		}
	}
}

// TestSteensgaardOverapproximates: unification results must be supersets
// of the subset-based results.
func TestSteensgaardOverapproximates(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nsyms := 3 + rng.Intn(12)
		prog := randomProgram(rng, nsyms, 5+rng.Intn(30))
		exact, err := Solve(pts.NewMemSource(prog), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		approx, err := steens.Solve(pts.NewMemSource(prog))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nsyms; i++ {
			id := prim.SymID(i)
			e := exact.PointsTo(id)
			a := approx.PointsTo(id)
			set := map[prim.SymID]bool{}
			for _, z := range a {
				set[z] = true
			}
			for _, z := range e {
				if !set[z] {
					t.Fatalf("seed %d: steensgaard pts(v%d)=%v missing %v from exact %v",
						seed, i, a, p2name(prog, z), e)
				}
			}
		}
	}
}

func p2name(p *prim.Program, id prim.SymID) string { return p.Sym(id).Name }

func TestMetricsAccounting(t *testing.T) {
	src := `int v, *p, *q, **pp;
void m(void) { p = &v; q = p; pp = &p; *pp = q; }`
	_, r := solveSrc(t, src, DefaultConfig())
	m := r.Metrics()
	if m.InFile == 0 || m.Loaded == 0 || m.Passes == 0 {
		t.Errorf("metrics = %+v", m)
	}
	if m.InCore == 0 {
		t.Error("complex assignment not retained in core")
	}
	if m.PointerVars == 0 || m.Relations == 0 {
		t.Errorf("result metrics empty: %+v", m)
	}
}

func TestCacheEffectiveness(t *testing.T) {
	// A diamond fan-in repeated: caching must convert repeated
	// reachability into hits.
	src := `int v, *a, *b, *c, *d, **s1, **s2, **s3;
void m(void) {
	a = &v; b = a; c = b; d = c;
	s1 = &a; s2 = &b; s3 = &c;
	*s1 = d; *s2 = d; *s3 = d;
}`
	_, r := solveSrc(t, src, DefaultConfig())
	if r.Metrics().CacheHits == 0 {
		t.Errorf("no cache hits: %+v", r.Metrics())
	}
}

func TestDeepChainNoStackOverflow(t *testing.T) {
	// 50k-long copy chain: traversal must be iterative.
	p := &prim.Program{}
	const n = 50000
	for i := 0; i < n; i++ {
		p.AddSym(prim.Symbol{Name: fmt.Sprintf("c%d", i), Kind: prim.SymGlobal})
	}
	tail := p.AddSym(prim.Symbol{Name: "tail", Kind: prim.SymGlobal})
	obj := p.AddSym(prim.Symbol{Name: "obj", Kind: prim.SymGlobal})
	p.AddAssign(prim.Assign{Kind: prim.Base, Dst: tail, Src: obj, Strength: prim.Strong})
	p.AddAssign(prim.Assign{Kind: prim.Simple, Dst: prim.SymID(n - 1), Src: tail, Strength: prim.Strong})
	for i := n - 1; i > 0; i-- {
		p.AddAssign(prim.Assign{Kind: prim.Simple, Dst: prim.SymID(i - 1), Src: prim.SymID(i), Strength: prim.Strong})
	}
	// Force a query through the whole chain with a complex assignment.
	q := p.AddSym(prim.Symbol{Name: "q", Kind: prim.SymGlobal})
	p.AddAssign(prim.Assign{Kind: prim.LoadInd, Dst: q, Src: 0, Strength: prim.Strong})
	r, err := Solve(pts.NewMemSource(p), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PointsTo(0); len(got) != 1 || got[0] != obj {
		t.Errorf("pts(c0) = %v", got)
	}
}

func TestGiantCycleUnifies(t *testing.T) {
	p := &prim.Program{}
	const n = 10000
	for i := 0; i < n; i++ {
		p.AddSym(prim.Symbol{Name: fmt.Sprintf("r%d", i), Kind: prim.SymGlobal})
	}
	obj := p.AddSym(prim.Symbol{Name: "obj", Kind: prim.SymGlobal})
	for i := 0; i < n; i++ {
		p.AddAssign(prim.Assign{Kind: prim.Simple, Dst: prim.SymID(i), Src: prim.SymID((i + 1) % n), Strength: prim.Strong})
	}
	p.AddAssign(prim.Assign{Kind: prim.Base, Dst: 0, Src: obj, Strength: prim.Strong})
	q := p.AddSym(prim.Symbol{Name: "q", Kind: prim.SymGlobal})
	p.AddAssign(prim.Assign{Kind: prim.LoadInd, Dst: q, Src: prim.SymID(n / 2), Strength: prim.Strong})
	r, err := Solve(pts.NewMemSource(p), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PointsTo(prim.SymID(n / 2)); len(got) != 1 || got[0] != obj {
		t.Errorf("pts(mid) = %v", got)
	}
	if m := r.Metrics(); m.Unifications < n-1 {
		t.Errorf("unifications = %d, want >= %d", m.Unifications, n-1)
	}
}

func TestEmptyProgram(t *testing.T) {
	r, err := Solve(pts.NewMemSource(&prim.Program{}), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m := r.Metrics(); m.Relations != 0 || m.PointerVars != 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestPointsToOutOfRange(t *testing.T) {
	r, err := Solve(pts.NewMemSource(&prim.Program{}), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PointsTo(99); got != nil {
		t.Errorf("PointsTo(99) = %v", got)
	}
	if got := r.PointsTo(prim.NoSym); got != nil {
		t.Errorf("PointsTo(NoSym) = %v", got)
	}
}

func TestJoinPointSharedSets(t *testing.T) {
	// Many variables reading the same join point share one lval set
	// (the paper's set-sharing optimization).
	src := `int o1, o2, *join;
int *a, *b, *c, *d;
void m(void) {
	join = &o1; join = &o2;
	a = join; b = join; c = join; d = join;
}`
	p, r := solveSrc(t, src, DefaultConfig())
	want := []string{"o1", "o2"}
	for _, n := range []string{"a", "b", "c", "d", "join"} {
		if got := ptsOf(p, r, n); !eq(got, want) {
			t.Errorf("pts(%s) = %v", n, got)
		}
	}
}

func TestDerefNodesUnifyWithCycleMembers(t *testing.T) {
	// p and q form a copy cycle and are both dereferenced: after their
	// nodes unify, loads through either see stores through both.
	src := `int v1, v2, *a, *b, **p, **q;
void m(void) {
	p = q; q = p;
	p = &a; q = &b;
	*p = &v1;
	*q = &v2;
	a = *p;
	b = *q;
}`
	p, r := solveSrc(t, src, DefaultConfig())
	for _, n := range []string{"a", "b"} {
		got := ptsOf(p, r, n)
		if !eq(got, []string{"v1", "v2"}) {
			t.Errorf("pts(%s) = %v, want [v1 v2]", n, got)
		}
	}
}

func TestMaxPassesGuard(t *testing.T) {
	src := `int v, *p, **q;
void m(void) { q = &p; *q = &v; p = *q; }`
	prog, err := frontend.CompileSource("t.c", src, nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxPasses = 1
	if _, err := Solve(pts.NewMemSource(prog), cfg); err == nil {
		t.Error("expected non-convergence error with MaxPasses=1")
	}
}

func TestResultQueryAfterSolveIsStable(t *testing.T) {
	src := `int v, *p, *q;
void m(void) { p = &v; q = p; }`
	p, r := solveSrc(t, src, DefaultConfig())
	first := ptsOf(p, r, "q")
	for i := 0; i < 5; i++ {
		if got := ptsOf(p, r, "q"); !eq(got, first) {
			t.Fatalf("query %d changed: %v vs %v", i, got, first)
		}
	}
	// Queries on unrelated symbols don't disturb earlier answers.
	ptsOf(p, r, "v")
	ptsOf(p, r, "m")
	if got := ptsOf(p, r, "q"); !eq(got, first) {
		t.Errorf("later queries corrupted result: %v", got)
	}
}

func TestSharedFileSourceDemand(t *testing.T) {
	// Demand loading through a real serialized file, not MemSource.
	src := `int v, *p, *q;
int dead1, dead2;
void m(void) { p = &v; q = p; dead1 = dead2; }`
	prog, err := frontend.CompileSource("t.c", src, nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/t.clo"
	if err := objfile.WriteFile(path, prog); err != nil {
		t.Fatal(err)
	}
	rd, err := objfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	res, err := Solve(&pts.FileSource{R: rd}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := prog.SymIDByName("q")
	set := res.PointsTo(q)
	if len(set) != 1 || prog.Sym(set[0]).Name != "v" {
		t.Errorf("pts(q) = %v", set)
	}
	// The dead chain's blocks stay unread.
	if loaded := rd.LoadStats().EntriesLoaded; loaded >= int64(res.Metrics().InFile) {
		t.Errorf("loaded %d of %d entries", loaded, res.Metrics().InFile)
	}
}

// panicSym is a source whose Sym panics for one symbol, standing in for
// a bug in a pass that fans out across workers.
type panicSym struct {
	pts.Source
	victim prim.SymID
}

func (s panicSym) Sym(id prim.SymID) *prim.Symbol {
	if id == s.victim {
		panic("bad symbol")
	}
	return s.Source.Sym(id)
}

// TestSolveFailsOnWorkerPanic: a panic in the sharded metrics pass makes
// Solve fail with the contained *parallel.PanicError at any worker
// count, instead of returning a result with undercounted metrics.
func TestSolveFailsOnWorkerPanic(t *testing.T) {
	p, err := frontend.CompileSource("t.c", "int a, *x; void m(void) { x = &a; }", nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// a is read only by the metrics pass: it has no function record and
	// no points-to set of its own.
	src := panicSym{pts.NewMemSource(p), p.SymIDByName("a")}
	for _, j := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Jobs = j
		res, err := Solve(src, cfg)
		var pe *parallel.PanicError
		if !errors.As(err, &pe) || pe.Value != "bad symbol" {
			t.Fatalf("j=%d: Solve = %v, %v; want the contained panic", j, res, err)
		}
	}
}
