package worklist

import (
	"context"
	"testing"

	"cla/internal/frontend"
	"cla/internal/prim"
	"cla/internal/pts"
)

func solve(t *testing.T, src string) (*prim.Program, *Result) {
	t.Helper()
	p, err := frontend.CompileSource("t.c", src, nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Solve(context.Background(), pts.NewMemSource(p), 1)
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

func TestStoreLoad(t *testing.T) {
	p, r := solve(t, `int v, *a, *b, **pp;
void m(void) { pp = &a; *pp = &v; b = *pp; }`)
	if got := ptsNames(p, r, "b"); len(got) != 1 || got[0] != "v" {
		t.Errorf("pts(b) = %v", got)
	}
}

func TestCopyInd(t *testing.T) {
	p, r := solve(t, `int v, *a, *b, **p, **q;
void m(void) { p = &a; q = &b; a = &v; *q = *p; }`)
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
	if got := ptsNames(p, r, "a"); len(got) != 1 || got[0] != "obj" {
		t.Errorf("pts(a) = %v", got)
	}
}

func TestCycleConverges(t *testing.T) {
	p, r := solve(t, `int v, *a, *b, *c;
void m(void) { a = b; b = c; c = a; b = &v; }`)
	for _, n := range []string{"a", "b", "c"} {
		if got := ptsNames(p, r, n); len(got) != 1 || got[0] != "v" {
			t.Errorf("pts(%s) = %v", n, got)
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

func TestOutOfRangePointsTo(t *testing.T) {
	_, r := solve(t, "int x;")
	if got := r.PointsTo(12345); got != nil {
		t.Errorf("PointsTo = %v", got)
	}
	if got := r.PointsTo(prim.NoSym); got != nil {
		t.Errorf("PointsTo(NoSym) = %v", got)
	}
}
