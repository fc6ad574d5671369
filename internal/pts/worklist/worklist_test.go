package worklist

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"cla/internal/claerr"
	"cla/internal/frontend"
	"cla/internal/gen"
	"cla/internal/linker"
	"cla/internal/prim"
	"cla/internal/pts"
)

func solve(t *testing.T, src string) (*prim.Program, *Result) {
	t.Helper()
	p, err := frontend.CompileSource("t.c", src, nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Solve(context.Background(), pts.NewMemSource(p))
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

// buildGenProgram compiles and links a scaled Table 2 workload without
// going through the driver (which would import this package back).
func buildGenProgram(t *testing.T, name string, scale float64) *prim.Program {
	t.Helper()
	p, ok := gen.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	code := gen.Generate(p.Scale(scale), 1)
	loader := code.Loader()
	var units []*prim.Program
	for _, u := range code.Units() {
		prog, err := frontend.CompileFile(u, loader, frontend.Options{})
		if err != nil {
			t.Fatalf("compile %s: %v", u, err)
		}
		units = append(units, prog)
	}
	prog, err := linker.Link(units)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// countdownCtx reports cancellation after a fixed number of Err checks,
// making mid-solve cancellation deterministic.
type countdownCtx struct {
	context.Context
	checks atomic.Int64
	after  int64
}

func (c *countdownCtx) Err() error {
	if c.checks.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestCancelDuringRules cancels a solve past its setup: a huge delta must
// not starve the per-application check, and the first check that sees
// the cancellation must stop the solve.
func TestCancelDuringRules(t *testing.T) {
	prog := buildGenProgram(t, "burlap", 0.1)
	ctx := &countdownCtx{Context: context.Background(), after: 3}
	_, err := Solve(ctx, pts.NewMemSource(prog))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if checked := ctx.checks.Load(); checked != ctx.after+1 {
		t.Errorf("solve ran %d checks past the cancellation", checked-ctx.after-1)
	}
	if got := claerr.HTTPStatus(claerr.New(claerr.PhaseAnalyze, err)); got != 499 {
		t.Errorf("HTTPStatus = %d, want 499", got)
	}
}
