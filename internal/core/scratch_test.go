package core

import (
	"context"
	"math/rand"
	"testing"

	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/pts/worklist"
)

// midPassGrowthProgram builds a database whose node count more than
// doubles in the middle of the first fixpoint pass: the block of z
// (holding k copy-indirect assignments, each split through a fresh
// auxiliary temp) is demand-loaded only when the store rule *x = y makes
// z relevant — which happens after the pass's first reachability
// traversal has already sized the scratch arrays for the original
// symbol count.
func midPassGrowthProgram(k int) *prim.Program {
	p := &prim.Program{}
	sym := func(n string) prim.SymID {
		return p.AddSym(prim.Symbol{Name: n, Kind: prim.SymGlobal, Type: "int*"})
	}
	v0, x, y, z := sym("v0"), sym("x"), sym("y"), sym("z")
	a, m, tt := sym("a"), sym("m"), sym("tt")
	base := func(d, s prim.SymID) {
		p.AddAssign(prim.Assign{Kind: prim.Base, Dst: d, Src: s, Op: prim.OpCopy, Strength: prim.Strong})
	}
	base(x, z)
	base(y, v0)
	base(v0, tt)
	base(a, m)
	// *x = y lives in the block of y (relevant from the start).
	p.AddAssign(prim.Assign{Kind: prim.StoreInd, Dst: x, Src: y, Op: prim.OpCopy, Strength: prim.Strong})
	// k copy-indirects in the block of z: loaded mid-pass, each creating
	// an auxiliary temp, plus deref nodes, during the complex-rule loop.
	for i := 0; i < k; i++ {
		p.AddAssign(prim.Assign{Kind: prim.CopyInd, Dst: a, Src: z, Op: prim.OpCopy, Strength: prim.Strong})
	}
	return p
}

// TestScratchGrowsMidPass pins the unified ensureScratch growth policy:
// when demand loading creates auxiliary nodes after the pass's first
// traversal, every scratch array (including tVal, which used to have its
// own growth guard) must be regrown coherently, and results must still
// match the worklist oracle.
func TestScratchGrowsMidPass(t *testing.T) {
	const k = 20
	prog := midPassGrowthProgram(k)
	nsyms := len(prog.Syms)

	want, err := worklist.Solve(context.Background(), pts.NewMemSource(prog), 1)
	if err != nil {
		t.Fatalf("worklist: %v", err)
	}
	configs := []Config{
		{Cache: true, CycleElim: true, DemandLoad: true},
		{Cache: false, CycleElim: true, DemandLoad: true},
		{Cache: true, CycleElim: false, DemandLoad: true},
		{Cache: false, CycleElim: false, DemandLoad: true},
	}
	for ci, cfg := range configs {
		cfg.MaxPasses = 1000
		got, err := Solve(pts.NewMemSource(prog), cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", ci, err)
		}
		// The graph must actually have outgrown the initial scratch
		// sizing (nsyms*2) mid-pass for this to be a regression test.
		if n := len(got.s.nodes); n <= nsyms*2 {
			t.Fatalf("cfg %d: only %d nodes for %d syms; program no longer grows mid-pass", ci, n, nsyms)
		}
		for i := 0; i < nsyms; i++ {
			id := prim.SymID(i)
			g, w := got.PointsTo(id), want.PointsTo(id)
			if len(g) != len(w) {
				t.Fatalf("cfg %d: pts(%s) = %v, want %v", ci, prog.Sym(id).Name, g, w)
			}
			for j := range g {
				if g[j] != w[j] {
					t.Fatalf("cfg %d: pts(%s) = %v, want %v", ci, prog.Sym(id).Name, g, w)
				}
			}
		}
	}
}

// BenchmarkSolve exercises the full pre-transitive pipeline (demand
// loading, caching, cycle elimination, snapshot) on a deterministic
// random database — the core half of the CI bench-smoke gate.
func BenchmarkSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	p := randomProgram(rng, 2000, 6000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.MaxPasses = 100000
		if _, err := Solve(pts.NewMemSource(p), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
