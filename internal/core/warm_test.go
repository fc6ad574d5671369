package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"cla/internal/prim"
	"cla/internal/pts"
)

// warmEdit derives a new program from old the way an edit that keeps the
// warm start's conditions does: it removes a set of symbols R whose every
// mention is a base, simple or load assignment into R, renumbers the
// surviving symbols, appends fresh symbols and adds random assignments.
// It returns nil when the drawn R does not qualify.
func warmEdit(rng *rand.Rand, old *prim.Program) (*prim.Program, Edit) {
	n := len(old.Syms)
	removed := make([]bool, n)
	for k := rng.Intn(3); k > 0; k-- {
		removed[rng.Intn(n)] = true
	}
	var keptAssigns []prim.Assign
	for _, a := range old.Assigns {
		if !removed[a.Dst] && !removed[a.Src] {
			keptAssigns = append(keptAssigns, a)
			continue
		}
		if !removed[a.Dst] || a.Kind == prim.StoreInd || a.Kind == prim.CopyInd {
			return nil, Edit{}
		}
	}
	// Kept symbols in a shuffled order, then fresh ones.
	var order []int
	for i := 0; i < n; i++ {
		if !removed[i] {
			order = append(order, i)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	m := make([]prim.SymID, n)
	for i := range m {
		m[i] = prim.NoSym
	}
	p := &prim.Program{}
	for _, i := range order {
		m[i] = p.AddSym(old.Syms[i])
	}
	for k := rng.Intn(3); k > 0; k-- {
		p.AddSym(prim.Symbol{Name: fmt.Sprintf("w%d", len(p.Syms)), Kind: prim.SymGlobal, Type: "int*"})
	}
	for _, a := range keptAssigns {
		a.Dst, a.Src = m[a.Dst], m[a.Src]
		p.AddAssign(a)
	}
	var added []prim.Assign
	for k := rng.Intn(6); k > 0; k-- {
		a := prim.Assign{
			Kind: prim.Kind(rng.Intn(prim.NumKinds)),
			Dst:  prim.SymID(rng.Intn(len(p.Syms))),
			Src:  prim.SymID(rng.Intn(len(p.Syms))),
		}
		added = append(added, a)
	}
	// The database lists added assignments among the kept ones.
	p.Assigns = append(p.Assigns, added...)
	rng.Shuffle(len(p.Assigns), func(i, j int) { p.Assigns[i], p.Assigns[j] = p.Assigns[j], p.Assigns[i] })
	return p, Edit{Map: m, Added: added}
}

func ptsDump(r *Result, n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += fmt.Sprintln(i, r.PointsTo(prim.SymID(i)))
	}
	return s
}

// TestSolveFromMatchesScratch: on random edits that keep the warm
// start's conditions, a solve seeded from the previous generation (and
// a chain of them) gives exactly the scratch sets, Table 3 counts and
// snapshot cache accounting, under every Config and worker count, and
// leaves the previous Result unchanged.
func TestSolveFromMatchesScratch(t *testing.T) {
	configs := []Config{
		{Cache: true, CycleElim: true, DemandLoad: true},
		{Cache: true, CycleElim: true, DemandLoad: false},
		{Cache: false, CycleElim: true, DemandLoad: true},
		{Cache: true, CycleElim: false, DemandLoad: true},
	}
	warm := 0
	for seed := int64(0); seed < 60; seed++ {
		for ci, cfg := range configs {
			for _, jobs := range []int{1, 2, 4} {
				cfg.Jobs = jobs
				cfg.MaxPasses = 10000
				rng := rand.New(rand.NewSource(seed))
				prog := randomProgram(rng, 3+rng.Intn(15), 5+rng.Intn(40))
				prev, err := Solve(pts.NewMemSource(prog), cfg)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 4; step++ {
					next, ed := warmEdit(rng, prog)
					if next == nil {
						continue
					}
					before := ptsDump(prev, len(prog.Syms))
					got, err := SolveFrom(context.Background(), pts.NewMemSource(next), cfg, prev, ed)
					if err != nil {
						t.Fatalf("seed %d cfg %d jobs %d step %d: %v", seed, ci, jobs, step, err)
					}
					warm++
					want, err := Solve(pts.NewMemSource(next), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := ptsDump(got, len(next.Syms)), ptsDump(want, len(next.Syms)); g != w {
						t.Fatalf("seed %d cfg %d jobs %d step %d: warm sets\n%s\nscratch\n%s", seed, ci, jobs, step, g, w)
					}
					gm, wm := got.Metrics(), want.Metrics()
					if gm.PointerVars != wm.PointerVars || gm.Relations != wm.Relations || gm.InFile != wm.InFile {
						t.Fatalf("seed %d cfg %d jobs %d step %d: metrics %+v, scratch %+v", seed, ci, jobs, step, gm, wm)
					}
					if jobs >= 2 && (gm.CacheHits != wm.CacheHits || gm.CacheMisses != wm.CacheMisses) {
						t.Fatalf("seed %d cfg %d jobs %d step %d: cache %d/%d, scratch %d/%d",
							seed, ci, jobs, step, gm.CacheHits, gm.CacheMisses, wm.CacheHits, wm.CacheMisses)
					}
					if after := ptsDump(prev, len(prog.Syms)); after != before {
						t.Fatalf("seed %d cfg %d jobs %d step %d: SolveFrom changed the previous result", seed, ci, jobs, step)
					}
					prog, prev = next, got
				}
			}
		}
	}
	if warm < 500 {
		t.Fatalf("only %d warm solves ran", warm)
	}
}

// TestSolveFromRejectsOpenRegion: a map that keeps a pointer but removes
// its pointee leaves a kept class pointing into the removed region, and
// the seed refuses it; so does a config the previous graph was not
// solved under.
func TestSolveFromRejectsOpenRegion(t *testing.T) {
	p := &prim.Program{}
	x := p.AddSym(prim.Symbol{Name: "x", Kind: prim.SymGlobal})
	g := p.AddSym(prim.Symbol{Name: "g", Kind: prim.SymGlobal})
	p.AddAssign(prim.Assign{Kind: prim.Base, Dst: x, Src: g})
	prev, err := Solve(pts.NewMemSource(p), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	next := &prim.Program{Syms: p.Syms[:1]}
	_, err = SolveFrom(context.Background(), pts.NewMemSource(next), DefaultConfig(), prev,
		Edit{Map: []prim.SymID{0, prim.NoSym}})
	if !errors.Is(err, ErrNoWarmStart) {
		t.Fatalf("open region: err = %v, want ErrNoWarmStart", err)
	}
	cfg := DefaultConfig()
	cfg.DemandLoad = false
	_, err = SolveFrom(context.Background(), pts.NewMemSource(p), cfg, prev,
		Edit{Map: []prim.SymID{0, 1}})
	if !errors.Is(err, ErrNoWarmStart) {
		t.Fatalf("config change: err = %v, want ErrNoWarmStart", err)
	}
	if got := prev.PointsTo(x); !slices.Equal(got, []prim.SymID{g}) {
		t.Fatalf("previous result changed: %v", got)
	}
}

// TestSolveFromDropsPrevious: a warm result holds no reference to the
// previous solver, so the previous generation is collectable as soon as
// its holders drop it.
func TestSolveFromDropsPrevious(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog := randomProgram(rng, 12, 30)
	prev, err := Solve(pts.NewMemSource(prog), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := make([]prim.SymID, len(prog.Syms))
	for i := range m {
		m[i] = prim.SymID(i)
	}
	got, err := SolveFrom(context.Background(), pts.NewMemSource(prog), DefaultConfig(), prev, Edit{Map: m})
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(prev.s, func(*Solver) { close(collected) })
	prev = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(got)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the previous solver is still reachable from the warm result")
}

// TestSeedFitsPresizedNodes: SolveFrom sizes the new node table for
// every auxiliary node of the previous graph, so seeding the surviving
// ones never grows it.
func TestSeedFitsPresizedNodes(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := randomProgram(rng, 3+rng.Intn(15), 5+rng.Intn(40))
		prev, err := Solve(pts.NewMemSource(prog), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		m := make([]prim.SymID, len(prog.Syms))
		for i := range m {
			m[i] = prim.SymID(i)
		}
		old := prev.s
		s := newSolver(pts.NewMemSource(prog), DefaultConfig(), len(old.nodes)-int(old.numSyms))
		size := cap(s.nodes)
		if !s.seed(old, m) {
			t.Fatalf("seed %d: identity map refused", seed)
		}
		if cap(s.nodes) != size {
			t.Fatalf("seed %d: node table grew from %d to %d while seeding", seed, size, cap(s.nodes))
		}
	}
}
