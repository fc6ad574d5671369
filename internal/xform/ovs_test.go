package xform

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/frontend"
	"cla/internal/gen"
	"cla/internal/prim"
	"cla/internal/pts"
)

func TestOVSCollapsesCopyChain(t *testing.T) {
	src := `int v;
int *p0, *p1, *p2, *p3;
void m(void) {
	p0 = &v;
	p1 = p0;
	p2 = p1;
	p3 = p2;
}`
	p := compile(t, src)
	sub, mapping := OfflineVarSub(p)
	if err := sub.Validate(); err != nil {
		t.Fatalf("substituted program invalid: %v", err)
	}
	if len(sub.Assigns) >= len(p.Assigns) {
		t.Errorf("no shrinkage: %d vs %d", len(sub.Assigns), len(p.Assigns))
	}
	// All p1..p3 map to p0.
	p0 := p.SymIDByName("p0")
	for _, name := range []string{"p1", "p2", "p3"} {
		id := p.SymIDByName(name)
		if mapping[id] != p0 {
			t.Errorf("%s maps to %s, want p0", name, p.Sym(mapping[id]).Name)
		}
	}
	// Solving the substituted program gives the chain's set at the rep.
	r := solve(t, sub)
	got := ptsNames(sub, r, "p0")
	if !got["v"] {
		t.Errorf("pts(p0) = %v", got)
	}
}

func TestOVSCollapsesCopyCycle(t *testing.T) {
	src := `int v;
int *a, *b, *c;
void m(void) { a = b; b = c; c = a; a = &v; }`
	p := compile(t, src)
	_, mapping := OfflineVarSub(p)
	a, b, c := p.SymIDByName("a"), p.SymIDByName("b"), p.SymIDByName("c")
	if mapping[a] != mapping[b] || mapping[b] != mapping[c] {
		t.Errorf("cycle not collapsed: %v %v %v", mapping[a], mapping[b], mapping[c])
	}
}

func TestOVSKeepsAddressTakenDistinct(t *testing.T) {
	// q's address is taken: a store through pp may write q alone, so q
	// must not be substituted away despite the single copy inflow.
	src := `int v1, v2;
int *p, *q, **pp;
void m(void) {
	q = p;
	pp = &q;
	*pp = &v2;
	p = &v1;
}`
	p := compile(t, src)
	_, mapping := OfflineVarSub(p)
	q := p.SymIDByName("q")
	if mapping[q] != q {
		t.Errorf("address-taken q substituted to %s", p.Sym(mapping[q]).Name)
	}
}

func TestOVSPreservesResultsExactly(t *testing.T) {
	src := `int g1, g2;
struct S { int *f; } s;
int *a, *b, *c, *d, **pp;
int *id(int *x) { return x; }
int *(*fp)(int *);
void m(void) {
	a = &g1;
	b = a;
	c = b;
	s.f = c;
	d = s.f;
	pp = &a;
	*pp = &g2;
	fp = id;
	d = fp(a);
}`
	p := compile(t, src)
	base := solve(t, p)
	sub, mapping := OfflineVarSub(p)
	after, err := core.Solve(pts.NewMemSource(sub), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every original variable's set must be recoverable through the
	// mapping, identical to the unsubstituted analysis.
	for i := range p.Syms {
		id := prim.SymID(i)
		if !pts.CountedAsPointerVar(p.Syms[i].Kind) {
			continue
		}
		want := base.PointsTo(id)
		got := after.PointsTo(mapping[id])
		if len(want) != len(got) {
			t.Errorf("%s: %v vs %v (via %s)", p.Syms[i].Name,
				namesOf(p, got), namesOf(p, want), p.Sym(mapping[id]).Name)
			continue
		}
		for j := range want {
			if want[j] != got[j] {
				t.Errorf("%s: %v vs %v", p.Syms[i].Name, namesOf(p, got), namesOf(p, want))
				break
			}
		}
	}
}

func namesOf(p *prim.Program, ids []prim.SymID) []string {
	var out []string
	for _, id := range ids {
		out = append(out, p.Sym(id).Name)
	}
	return out
}

// Property: on random programs, OVS + solve == solve, through the mapping.
func TestOVSEquivalenceOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := &prim.Program{}
		nsyms := 4 + rng.Intn(16)
		for i := 0; i < nsyms; i++ {
			prog.AddSym(prim.Symbol{Name: fmt.Sprintf("v%d", i), Kind: prim.SymGlobal})
		}
		for i := 0; i < 6+rng.Intn(40); i++ {
			prog.AddAssign(prim.Assign{
				Kind: prim.Kind(rng.Intn(prim.NumKinds)),
				Dst:  prim.SymID(rng.Intn(nsyms)),
				Src:  prim.SymID(rng.Intn(nsyms)),
			})
		}
		base, err := core.Solve(pts.NewMemSource(prog), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sub, mapping := OfflineVarSub(prog)
		after, err := core.Solve(pts.NewMemSource(sub), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nsyms; i++ {
			id := prim.SymID(i)
			want := base.PointsTo(id)
			got := after.PointsTo(mapping[id])
			if len(want) != len(got) {
				t.Fatalf("seed %d: pts(v%d) %v vs %v", seed, i, got, want)
			}
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("seed %d: pts(v%d) %v vs %v", seed, i, got, want)
				}
			}
		}
	}
}

func TestOVSShrinksGeneratedWorkload(t *testing.T) {
	p, _ := gen.ProfileByName("vortex")
	code := gen.Generate(p.Scale(0.03), 5)
	prog, err := driver.Compile(context.Background(), code.Units(), code.Loader(), frontend.Options{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := OfflineVarSub(prog)
	if len(sub.Assigns) >= len(prog.Assigns) {
		t.Errorf("no shrinkage on generated code: %d vs %d",
			len(sub.Assigns), len(prog.Assigns))
	}
	t.Logf("OVS: %d -> %d assignments (%.0f%%)", len(prog.Assigns), len(sub.Assigns),
		100*float64(len(sub.Assigns))/float64(len(prog.Assigns)))
}

func TestOVSEmptyProgram(t *testing.T) {
	sub, mapping := OfflineVarSub(&prim.Program{})
	if len(sub.Assigns) != 0 || len(mapping) != 0 {
		t.Error("empty program changed")
	}
}
