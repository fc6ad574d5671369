package depend

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/frontend"
	"cla/internal/gen"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/pts/steens"
)

// analyze compiles src, runs points-to, and analyzes dependence from the
// named target.
func analyze(t *testing.T, src, target string, opts Options) (*prim.Program, *Result) {
	t.Helper()
	p, err := frontend.CompileSource("eg1.c", src, nil, frontend.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	msrc := pts.NewMemSource(p)
	ptr, err := core.Solve(msrc, core.DefaultConfig())
	if err != nil {
		t.Fatalf("points-to: %v", err)
	}
	id := p.SymIDByName(target)
	if id == prim.NoSym {
		t.Fatalf("no symbol %q", target)
	}
	res, err := Analyze(msrc, ptr, []prim.SymID{id}, opts)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return p, res
}

// depNames returns the dependent names in rank order.
func depNames(p *prim.Program, r *Result, programOnly bool) []string {
	var out []string
	for _, d := range r.Dependents() {
		s := p.Sym(d.Sym)
		if programOnly {
			switch s.Kind {
			case prim.SymGlobal, prim.SymStatic, prim.SymLocal, prim.SymField:
			default:
				continue
			}
		}
		out = append(out, s.Name)
	}
	return out
}

func has(names []string, want ...string) map[string]bool {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	for _, w := range want {
		if !set[w] {
			return nil
		}
	}
	return set
}

func TestIntroductionExample(t *testing.T) {
	// From Section 1: changing x requires changing y, z, v, p but not w.
	src := `short x, y, z, *p, v, w;
void m(void) {
	y = x;
	z = y+1;
	p = &v;
	*p = z;
	w = 1;
}`
	p, r := analyze(t, src, "x", Options{})
	names := depNames(p, r, true)
	set := has(names, "y", "z", "v")
	if set == nil {
		t.Fatalf("dependents = %v, want y,z,v", names)
	}
	if set["w"] {
		t.Errorf("w must not be dependent: %v", names)
	}
	if set["p"] {
		// p holds &v, not x's value: pointer itself is not value-dependent.
		t.Logf("note: p reported dependent (paper says 'probably p')")
	}
}

func TestPaperFigure1Structs(t *testing.T) {
	// Figure 1: target -> u (via u = target), w (via *v = u), S.x (via
	// s.x = w).
	src := `short target;
struct S { short x; short y; };
short u, *v, w;
struct S s, t;
void m(void) {
	v = &w;
	u = target;
	*v = u;
	s.x = w;
}`
	p, r := analyze(t, src, "target", Options{})
	names := depNames(p, r, true)
	if has(names, "u", "w", "S.x") == nil {
		t.Fatalf("dependents = %v, want u,w,S.x", names)
	}
	set := has(names, "u")
	if set["S.y"] {
		t.Errorf("S.y must not be dependent: %v", names)
	}
	// Chain for S.x should pass through w and u back to target.
	chain := r.FormatChain(p.SymIDByName("S.x"))
	for _, part := range []string{"S.x/short", "w/short", "u/short", "target/short", "where target/short"} {
		if !strings.Contains(chain, part) {
			t.Errorf("chain %q missing %q", chain, part)
		}
	}
}

func TestStrengthRanking(t *testing.T) {
	// strongdep via +, weakdep via *, nodep via !.
	src := `int target;
int strongdep, weakdep, nodep;
void m(void) {
	strongdep = target + 1;
	weakdep = target * 3;
	nodep = !target;
}`
	p, r := analyze(t, src, "target", Options{})
	deps := r.Dependents()
	byName := map[string]Dependent{}
	for _, d := range deps {
		byName[p.Sym(d.Sym).Name] = d
	}
	if d, ok := byName["strongdep"]; !ok || d.Strength != prim.Strong {
		t.Errorf("strongdep = %+v", d)
	}
	if d, ok := byName["weakdep"]; !ok || d.Strength != prim.Weak {
		t.Errorf("weakdep = %+v", d)
	}
	if _, ok := byName["nodep"]; ok {
		t.Error("nodep must not be dependent")
	}
	// Ranking: strong before weak.
	names := depNames(p, r, true)
	si, wi := -1, -1
	for i, n := range names {
		if n == "strongdep" {
			si = i
		}
		if n == "weakdep" {
			wi = i
		}
	}
	if si > wi {
		t.Errorf("ranking wrong: %v", names)
	}
}

func TestWeakestLinkOnPath(t *testing.T) {
	// target -> a (strong) -> b (weak) -> c (strong): c's chain is weak.
	src := `int target, a, b, c;
void m(void) {
	a = target;
	b = a * 2;
	c = b + 1;
}`
	p, r := analyze(t, src, "target", Options{})
	for _, d := range r.Dependents() {
		if p.Sym(d.Sym).Name == "c" && d.Strength != prim.Weak {
			t.Errorf("c chain strength = %v, want Weak", d.Strength)
		}
	}
}

func TestStrongPathPreferredOverShortWeak(t *testing.T) {
	// Two routes to far: short weak (far = target*2) and long strong
	// (far = mid, mid = target). Strong must win.
	src := `int target, mid, far;
void m(void) {
	far = target * 2;
	mid = target;
	far = mid;
}`
	p, r := analyze(t, src, "target", Options{})
	for _, d := range r.Dependents() {
		if p.Sym(d.Sym).Name == "far" {
			if d.Strength != prim.Strong || d.Dist != 2 {
				t.Errorf("far = %+v, want Strong dist 2", d)
			}
		}
	}
}

func TestShortestAmongEqualStrength(t *testing.T) {
	src := `int target, a, b, direct;
void m(void) {
	a = target;
	b = a;
	direct = target;
	direct = b;
}`
	p, r := analyze(t, src, "target", Options{})
	for _, d := range r.Dependents() {
		if p.Sym(d.Sym).Name == "direct" && d.Dist != 1 {
			t.Errorf("direct dist = %d, want 1", d.Dist)
		}
	}
}

func TestPointerStoreDependence(t *testing.T) {
	src := `int target, sink, *p;
void m(void) {
	p = &sink;
	*p = target;
}`
	p, r := analyze(t, src, "target", Options{})
	if has(depNames(p, r, true), "sink") == nil {
		t.Errorf("dependents = %v, want sink", depNames(p, r, true))
	}
}

func TestPointerLoadDependence(t *testing.T) {
	// reader = *p where p may point to target: reader depends on target.
	src := `int target, reader, *p;
void m(void) {
	p = &target;
	reader = *p;
}`
	p, r := analyze(t, src, "target", Options{})
	if has(depNames(p, r, true), "reader") == nil {
		t.Errorf("dependents = %v, want reader", depNames(p, r, true))
	}
}

func TestCopyIndirectDependence(t *testing.T) {
	src := `int target, sink, *ps, *pt;
void m(void) {
	ps = &sink;
	pt = &target;
	*ps = *pt;
}`
	p, r := analyze(t, src, "target", Options{})
	if has(depNames(p, r, true), "sink") == nil {
		t.Errorf("dependents = %v, want sink", depNames(p, r, true))
	}
}

func TestInterproceduralDependence(t *testing.T) {
	src := `int target, out;
int pass(int v) { return v; }
void m(void) { out = pass(target); }`
	p, r := analyze(t, src, "target", Options{})
	if has(depNames(p, r, true), "out") == nil {
		t.Errorf("dependents = %v, want out", depNames(p, r, true))
	}
}

func TestNonTargets(t *testing.T) {
	// hub is a central object; marking it a non-target cuts everything
	// downstream of it.
	src := `int target, hub, downstream, direct;
void m(void) {
	hub = target;
	downstream = hub;
	direct = target;
}`
	p0, err := frontend.CompileSource("eg1.c", src, nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	msrc := pts.NewMemSource(p0)
	ptr, err := core.Solve(msrc, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hub := p0.SymIDByName("hub")
	res, err := Analyze(msrc, ptr, []prim.SymID{p0.SymIDByName("target")},
		Options{NonTargets: map[prim.SymID]bool{hub: true}})
	if err != nil {
		t.Fatal(err)
	}
	names := depNames(p0, res, true)
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	if set["hub"] || set["downstream"] {
		t.Errorf("non-target not respected: %v", names)
	}
	if !set["direct"] {
		t.Errorf("direct missing: %v", names)
	}
}

func TestDropWeak(t *testing.T) {
	src := `int target, s, w;
void m(void) { s = target; w = target * 2; }`
	p, r := analyze(t, src, "target", Options{DropWeak: true})
	names := depNames(p, r, true)
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	if !set["s"] || set["w"] {
		t.Errorf("DropWeak: %v", names)
	}
}

func TestMultipleTargetsByName(t *testing.T) {
	src := `int t1, t2, d1, d2;
void m(void) { d1 = t1; d2 = t2; }`
	p, err := frontend.CompileSource("eg1.c", src, nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	msrc := pts.NewMemSource(p)
	ptr, err := core.Solve(msrc, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(msrc, ptr,
		[]prim.SymID{p.SymIDByName("t1"), p.SymIDByName("t2")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := depNames(p, res, true)
	if has(names, "d1", "d2") == nil {
		t.Errorf("dependents = %v", names)
	}
}

func TestChainEndsAtTarget(t *testing.T) {
	src := `int target, a, b;
void m(void) { a = target; b = a; }`
	p, r := analyze(t, src, "target", Options{})
	chain := r.Chain(p.SymIDByName("b"))
	if len(chain) != 3 {
		t.Fatalf("chain = %v", chain)
	}
	if p.Sym(chain[0].Sym).Name != "b" || p.Sym(chain[2].Sym).Name != "target" {
		t.Errorf("chain endpoints wrong")
	}
}

func TestNoDependents(t *testing.T) {
	src := `int target, unrelated;
void m(void) { unrelated = 1; }`
	p, r := analyze(t, src, "target", Options{})
	if n := depNames(p, r, true); len(n) != 0 {
		t.Errorf("dependents = %v", n)
	}
	if r.IsDependent(p.SymIDByName("unrelated")) {
		t.Error("unrelated reported dependent")
	}
}

func TestChainOfMissingSymEmpty(t *testing.T) {
	src := `int target; void m(void) {}`
	p, r := analyze(t, src, "target", Options{})
	if c := r.Chain(p.SymIDByName("m") + 100); c != nil {
		t.Errorf("chain = %v", c)
	}
	if s := r.FormatChain(prim.SymID(9999)); s != "" {
		t.Errorf("format = %q", s)
	}
}

func TestDependenceThroughFieldBased(t *testing.T) {
	// All objects sharing the field S.x are coupled, per the paper's
	// rationale for uniform field treatment.
	src := `struct S { short x; } s, t;
short target, out;
void m(void) {
	s.x = target;
	out = t.x;
}`
	p, r := analyze(t, src, "target", Options{})
	if has(depNames(p, r, true), "S.x", "out") == nil {
		t.Errorf("dependents = %v, want S.x and out", depNames(p, r, true))
	}
}

func TestLoadedAccounting(t *testing.T) {
	src := `int target, a; void m(void) { a = target; }`
	_, r := analyze(t, src, "target", Options{})
	if r.Loaded == 0 {
		t.Error("no load accounting")
	}
}

func TestFormatTree(t *testing.T) {
	src := `short target;
short a, b, c;
void m(void) {
	a = target;
	b = a;
	c = target * 2;
}`
	p, r := analyze(t, src, "target", Options{})
	tree := r.FormatTree(0)
	for _, want := range []string{"target/short", "a/short", "b/short", "c/short", "└─", "[strong]", "[weak]"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
	// b must be nested under a (indented deeper).
	ai := strings.Index(tree, "a/short")
	bi := strings.Index(tree, "b/short")
	if ai < 0 || bi < 0 || bi < ai {
		t.Errorf("ordering wrong:\n%s", tree)
	}
	_ = p
}

func TestFormatTreeDepthLimit(t *testing.T) {
	src := `short target, a, b, c;
void m(void) { a = target; b = a; c = b; }`
	_, r := analyze(t, src, "target", Options{})
	tree := r.FormatTree(1)
	if strings.Contains(tree, "b/short") {
		t.Errorf("depth limit ignored:\n%s", tree)
	}
	if !strings.Contains(tree, "more below") {
		t.Errorf("no elision marker:\n%s", tree)
	}
}

// ---------- reference: the per-query cross-product index ----------

// refIndex is the index as it was before Index: every query rebuilt this
// map from each pointee v to the reads through pointers to v, with one
// entry per pair in pts(d) × pts(u). It is kept only as the reference the
// shared index must match byte for byte. Building it is target
// independent, so the tests build it once per solve and refAnalyze
// charges its loads to each query, as the per-query rebuild did.
type refIndex struct {
	src       pts.Source
	ptr       Pointer
	byPointee map[prim.SymID][]refRead
	loaded    int
}

type refRead struct {
	dst prim.SymID
	loc prim.Loc
	op  prim.Op
	str prim.Strength
}

func newRefIndex(src pts.Source, ptr Pointer) (*refIndex, error) {
	x := &refIndex{src: src, ptr: ptr, byPointee: map[prim.SymID][]refRead{}}
	for i := 0; i < src.NumSyms(); i++ {
		u := prim.SymID(i)
		pset := ptr.PointsTo(u)
		if len(pset) == 0 {
			continue
		}
		block, err := src.Block(u)
		if err != nil {
			return nil, err
		}
		x.loaded += len(block)
		for _, e := range block {
			switch e.Kind {
			case prim.LoadInd:
				for _, v := range pset {
					x.byPointee[v] = append(x.byPointee[v], refRead{dst: e.Dst, loc: e.Loc, op: e.Op, str: e.Strength})
				}
			case prim.CopyInd:
				for _, w := range ptr.PointsTo(e.Dst) {
					for _, v := range pset {
						x.byPointee[v] = append(x.byPointee[v], refRead{dst: w, loc: e.Loc, op: e.Op, str: e.Strength})
					}
				}
			}
		}
	}
	return x, nil
}

// refAnalyze is the analysis over the reference index; the first
// expanded object pays the index's loads, as the lazy rebuild did.
func refAnalyze(x *refIndex, targets []prim.SymID, opts Options) (*Result, error) {
	r := &Result{src: x.src, targets: targets, best: map[prim.SymID]*state{}}
	a := &refAnalyzer{idx: x, opts: opts, res: r}
	if err := a.run(targets); err != nil {
		return nil, err
	}
	return r, nil
}

type refAnalyzer struct {
	idx     *refIndex
	opts    Options
	res     *Result
	charged bool

	pq workQueue
}

func (a *refAnalyzer) run(targets []prim.SymID) error {
	for _, t := range targets {
		if a.opts.NonTargets[t] {
			continue
		}
		a.res.best[t] = &state{strength: prim.Strong, dist: 0}
		heap.Push(&a.pq, item{sym: t, strength: prim.Strong, dist: 0})
	}
	for a.pq.Len() > 0 {
		it := heap.Pop(&a.pq).(item)
		st := a.res.best[it.sym]
		if st == nil || st.strength != it.strength || st.dist != it.dist {
			continue
		}
		if err := a.expand(it.sym, st); err != nil {
			return err
		}
	}
	return nil
}

func (a *refAnalyzer) relax(dst, via prim.SymID, edge prim.Strength, loc prim.Loc, op prim.Op, from *state) {
	if edge == prim.None || a.opts.NonTargets[dst] {
		return
	}
	strength := from.strength
	if edge < strength {
		strength = edge
	}
	if a.opts.DropWeak && strength < prim.Strong {
		return
	}
	dist := from.dist + 1
	if cur := a.res.best[dst]; cur != nil {
		if cur.strength > strength || (cur.strength == strength && cur.dist <= dist) {
			return
		}
	}
	a.res.best[dst] = &state{
		strength: strength, dist: dist,
		prev: via, prevSet: true, loc: loc, op: op, edgeStr: edge,
	}
	heap.Push(&a.pq, item{sym: dst, strength: strength, dist: dist})
}

func (a *refAnalyzer) expand(sym prim.SymID, st *state) error {
	block, err := a.idx.src.Block(sym)
	if err != nil {
		return err
	}
	a.res.Loaded += len(block)
	for _, e := range block {
		switch e.Kind {
		case prim.Simple:
			a.relax(e.Dst, sym, e.Strength, e.Loc, e.Op, st)
		case prim.StoreInd:
			for _, v := range a.idx.ptr.PointsTo(e.Dst) {
				a.relax(v, sym, e.Strength, e.Loc, e.Op, st)
			}
		}
	}
	if !a.charged {
		a.charged = true
		a.res.Loaded += a.idx.loaded
	}
	for _, dr := range a.idx.byPointee[sym] {
		a.relax(dr.dst, sym, dr.str, dr.loc, dr.op, st)
	}
	return nil
}

// render prints everything a client can read off a result: the ranked
// dependents, every chain and the whole tree.
func render(r *Result) string {
	var b strings.Builder
	for _, d := range r.Dependents() {
		fmt.Fprintf(&b, "%+v %s\n", d, r.FormatChain(d.Sym))
	}
	b.WriteString(r.FormatTree(0))
	return b.String()
}

// pinCase is one solved generated program and the targets to ask about.
type pinCase struct {
	name    string
	src     pts.Source
	ptr     Pointer
	targets []prim.SymID
}

// pinCases compiles each profile at a small scale (2%, capped
// at 1,000 variables to bound the reference's cost), solves it
// with the pre-transitive solver and with Steensgaard's (larger sets),
// and draws 8 seeded targets per solve: half of them objects read
// through some pointer, so the index's transpose is exercised, half any
// named object.
func pinCases(t *testing.T, profiles []gen.Profile) []pinCase {
	t.Helper()
	var out []pinCase
	for i, prof := range profiles {
		code := gen.Generate(prof.Scale(min(0.02, 1000/float64(prof.Vars))), int64(i+1))
		prog, err := driver.Compile(context.Background(), code.Units(), code.Loader(), frontend.Options{}, 0, nil)
		if err != nil {
			t.Fatalf("%s: compile: %v", prof.Name, err)
		}
		src := pts.NewMemSource(prog)
		pre, err := core.Solve(src, core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: solve: %v", prof.Name, err)
		}
		st, err := steens.Solve(src)
		if err != nil {
			t.Fatalf("%s: steens: %v", prof.Name, err)
		}
		var named []prim.SymID
		for id := range prog.Syms {
			if prog.Syms[id].Kind != prim.SymTemp {
				named = append(named, prim.SymID(id))
			}
		}
		for _, s := range []struct {
			name string
			ptr  Pointer
		}{{"pretrans", pre}, {"steens", st}} {
			x, err := NewIndex(src, s.ptr)
			if err != nil {
				t.Fatal(err)
			}
			var read []prim.SymID
			for v := 0; v+1 < len(x.readerOff); v++ {
				if x.readerOff[v+1] > x.readerOff[v] {
					read = append(read, prim.SymID(v))
				}
			}
			if len(read) == 0 {
				t.Fatalf("%s/%s: no object is read through a pointer", prof.Name, s.name)
			}
			rng := rand.New(rand.NewSource(int64(i)))
			c := pinCase{name: prof.Name + "/" + s.name, src: src, ptr: s.ptr}
			for j := 0; j < 4; j++ {
				c.targets = append(c.targets, read[rng.Intn(len(read))], named[rng.Intn(len(named))])
			}
			out = append(out, c)
		}
	}
	return out
}

// TestIndexMatchesCrossProduct pins the shared index to the per-query
// cross product it replaced: on every Table 2 profile, under two
// solvers, with default options, DropWeak and a NonTargets set, the
// ranked dependents, every chain and the tree are byte-identical, and
// the one-shot Analyze loads as many block entries.
func TestIndexMatchesCrossProduct(t *testing.T) {
	for _, c := range pinCases(t, gen.Table2) {
		x, err := NewIndex(c.src, c.ptr)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefIndex(c.src, c.ptr)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range c.targets {
			ids := []prim.SymID{target}
			base, err := refAnalyze(ref, ids, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Cut the traversal at every third dependent.
			cut := map[prim.SymID]bool{}
			for k, d := range base.Dependents() {
				if k%3 == 1 {
					cut[d.Sym] = true
				}
			}
			for _, opts := range []Options{{}, {DropWeak: true}, {NonTargets: cut}} {
				want, err := refAnalyze(ref, ids, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := x.Analyze(ids, opts)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s target %d dropWeak=%v cut=%d", c.name, target, opts.DropWeak, len(opts.NonTargets))
				if w, g := render(want), render(got); w != g {
					t.Fatalf("%s: index differs from the cross product\nwant:\n%s\ngot:\n%s", name, w, g)
				}
				if got.Loaded+x.Loaded != want.Loaded {
					t.Errorf("%s: query Loaded %d + index Loaded %d != %d", name, got.Loaded, x.Loaded, want.Loaded)
				}
			}
			one, err := Analyze(c.src, c.ptr, ids, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if one.Loaded != base.Loaded || render(one) != render(base) {
				t.Errorf("%s target %d: one-shot Analyze differs from the cross product (Loaded %d, want %d)", c.name, target, one.Loaded, base.Loaded)
			}
		}
	}
}

// TestIndexConcurrentQueries shares one Index between 8 goroutines, each
// asking every target, and checks every answer against the sequential
// one (run under -race by the Makefile's race target).
func TestIndexConcurrentQueries(t *testing.T) {
	c := pinCases(t, gen.Table2[1:2])[1] // burlap under Steensgaard: large sets, many reads
	x, err := NewIndex(c.src, c.ptr)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(c.targets))
	for k, target := range c.targets {
		r, err := x.Analyze([]prim.SymID{target}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[k] = render(r)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range c.targets {
				k := (i + g) % len(c.targets)
				r, err := x.Analyze([]prim.SymID{c.targets[k]}, Options{})
				if err != nil {
					errs <- err
					return
				}
				if render(r) != want[k] {
					errs <- fmt.Errorf("goroutine %d: target %d answer differs from the sequential one", g, c.targets[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
