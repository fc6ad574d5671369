package bitvec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cla/internal/frontend"
	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/pts/worklist"
)

func solve(t *testing.T, src string) (*prim.Program, *Result) {
	t.Helper()
	p, err := frontend.CompileSource("t.c", src, nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Solve(pts.NewMemSource(p), 0)
	if err != nil {
		t.Fatal(err)
	}
	return p, r
}

func ptsNames(p *prim.Program, r *Result, name string) []string {
	var out []string
	for _, z := range r.PointsTo(p.SymIDByName(name)) {
		out = append(out, p.Sym(z).Name)
	}
	return out
}

func TestBasic(t *testing.T) {
	p, r := solve(t, "int a, b, *x, *y; void m(void) { x = &a; y = x; x = &b; }")
	got := ptsNames(p, r, "y")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("pts(y) = %v", got)
	}
}

func TestSortedOutput(t *testing.T) {
	// Declaration order b-then-a; sets must come out in symbol order.
	p, r := solve(t, "int b, a, *x; void m(void) { x = &b; x = &a; }")
	got := r.PointsTo(p.SymIDByName("x"))
	if len(got) != 2 || got[0] > got[1] {
		t.Errorf("pts(x) not sorted: %v", got)
	}
}

func TestStoreLoadAndCopy(t *testing.T) {
	p, r := solve(t, `int v, *a, *b, **pp, **qq;
void m(void) { pp = &a; *pp = &v; b = *pp; qq = &b; *qq = *pp; }`)
	if got := ptsNames(p, r, "b"); len(got) != 1 || got[0] != "v" {
		t.Errorf("pts(b) = %v", got)
	}
}

func TestIndirectCalls(t *testing.T) {
	p, r := solve(t, `int obj;
int *id(int *a) { return a; }
int *(*fp)(int *);
int *res;
void m(void) { fp = id; res = fp(&obj); }`)
	if got := ptsNames(p, r, "res"); len(got) != 1 || got[0] != "obj" {
		t.Errorf("pts(res) = %v", got)
	}
}

// TestMatchesWorklist: the bit-vector and sorted-slice implementations of
// the same algorithm must agree exactly.
func TestMatchesWorklist(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := &prim.Program{}
		nsyms := 3 + rng.Intn(15)
		for i := 0; i < nsyms; i++ {
			prog.AddSym(prim.Symbol{Name: fmt.Sprintf("v%d", i), Kind: prim.SymGlobal})
		}
		na := 5 + rng.Intn(40)
		for i := 0; i < na; i++ {
			prog.AddAssign(prim.Assign{
				Kind: prim.Kind(rng.Intn(prim.NumKinds)),
				Dst:  prim.SymID(rng.Intn(nsyms)),
				Src:  prim.SymID(rng.Intn(nsyms)),
			})
		}
		bv, err := Solve(pts.NewMemSource(prog), 0)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := worklist.Solve(context.Background(), pts.NewMemSource(prog))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nsyms; i++ {
			b := bv.PointsTo(prim.SymID(i))
			w := wl.PointsTo(prim.SymID(i))
			if len(b) != len(w) {
				t.Fatalf("seed %d: pts(v%d): %v vs %v", seed, i, b, w)
			}
			for j := range b {
				if b[j] != w[j] {
					t.Fatalf("seed %d: pts(v%d): %v vs %v", seed, i, b, w)
				}
			}
		}
	}
}

func TestMetrics(t *testing.T) {
	_, r := solve(t, "int v, *p, **q; void m(void) { p = &v; q = &p; *q = p; }")
	m := r.Metrics()
	if m.PointerVars == 0 || m.Relations == 0 || m.InFile == 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestNoAddressTaken(t *testing.T) {
	p, r := solve(t, "int x, y; void m(void) { x = y; }")
	if got := r.PointsTo(p.SymIDByName("x")); got != nil {
		t.Errorf("pts(x) = %v", got)
	}
}

func TestOutOfRange(t *testing.T) {
	_, r := solve(t, "int x;")
	if got := r.PointsTo(999); got != nil {
		t.Errorf("PointsTo = %v", got)
	}
}

// panicSym is a source whose Sym panics for one symbol, standing in for
// a bug in the sharded metrics pass.
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
// count, instead of returning undercounted metrics.
func TestSolveFailsOnWorkerPanic(t *testing.T) {
	p, err := frontend.CompileSource("t.c", "int a, *x; void m(void) { x = &a; }", nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// a is read only by the metrics pass: it is no function and never
	// holds a points-to set, so the fixpoint never looks it up.
	src := panicSym{pts.NewMemSource(p), p.SymIDByName("a")}
	for _, j := range []int{1, 4} {
		res, err := Solve(src, j)
		var pe *parallel.PanicError
		if !errors.As(err, &pe) || pe.Value != "bad symbol" {
			t.Fatalf("j=%d: Solve = %v, %v; want the contained panic", j, res, err)
		}
	}
}
