package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
	return p, Edit{Own: m, Added: added}
}

func ptsDump(r *Result, n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += fmt.Sprintln(i, r.PointsTo(prim.SymID(i)))
	}
	return s
}

// bigEdit derives a new program from old whose edit reaches most of
// the graph. With cycle set it adds a simple assignment chain through
// every symbol that closes into one cycle, so every node reaches the
// change. Otherwise it adds a pointer hub that half the symbols load
// through, an object for it and a base fact on it, so the loads' block
// is demand-loaded and fires in the warm solve.
func bigEdit(rng *rand.Rand, old *prim.Program, cycle bool) (*prim.Program, Edit) {
	n := len(old.Syms)
	m := make([]prim.SymID, n)
	p := &prim.Program{}
	for i := range old.Syms {
		m[i] = p.AddSym(old.Syms[i])
	}
	for _, a := range old.Assigns {
		p.AddAssign(a)
	}
	var added []prim.Assign
	if cycle {
		order := rng.Perm(n)
		for i, v := range order {
			w := order[(i+1)%n]
			added = append(added, prim.Assign{Kind: prim.Simple, Dst: prim.SymID(v), Src: prim.SymID(w)})
		}
	} else {
		hub := p.AddSym(prim.Symbol{Name: fmt.Sprintf("hub%d", n), Kind: prim.SymGlobal, Type: "int**"})
		obj := p.AddSym(prim.Symbol{Name: fmt.Sprintf("obj%d", n), Kind: prim.SymGlobal, Type: "int*"})
		for _, v := range rng.Perm(n)[:n/2] {
			added = append(added, prim.Assign{Kind: prim.LoadInd, Dst: prim.SymID(v), Src: hub})
		}
		added = append(added,
			prim.Assign{Kind: prim.Base, Dst: hub, Src: obj},
			prim.Assign{Kind: prim.Base, Dst: obj, Src: prim.SymID(rng.Intn(n))})
	}
	p.Assigns = append(p.Assigns, added...)
	return p, Edit{Own: m, Added: added}
}

// warmChain is the length of the chains of warm generations the tests
// run on one solver.
const warmChain = 8

// TestSolveFromMatchesScratch: on random edits that keep the warm
// start's conditions, chains of warmChain generations solved in place
// on one solver give exactly the scratch sets, Table 3 counts and
// snapshot cache accounting, under every Config and worker count, and
// leave every previous Result unchanged. The chains include removals
// and two edits whose region is most of the graph: a hub that half the
// symbols load through, and a cycle through every symbol.
func TestSolveFromMatchesScratch(t *testing.T) {
	configs := []Config{
		{Cache: true, CycleElim: true, DemandLoad: true},
		{Cache: true, CycleElim: true, DemandLoad: false},
		{Cache: false, CycleElim: true, DemandLoad: true},
		{Cache: true, CycleElim: false, DemandLoad: true},
	}
	warm, big := 0, 0
	for seed := int64(0); seed < 40; seed++ {
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
				solver := prev.solver.Load()
				type gen struct {
					r    *Result
					n    int
					dump string
				}
				var olds []gen
				gens := 0
				for step := 0; gens < warmChain && step < 60; step++ {
					var next *prim.Program
					var ed Edit
					switch gens {
					case 3:
						next, ed = bigEdit(rng, prog, false)
					case warmChain - 1:
						next, ed = bigEdit(rng, prog, true)
					default:
						next, ed = warmEdit(rng, prog)
					}
					if next == nil {
						continue
					}
					olds = append(olds, gen{prev, len(prog.Syms), ptsDump(prev, len(prog.Syms))})
					got, err := SolveFrom(context.Background(), pts.NewMemSource(next), cfg, prev, ed)
					if err != nil {
						t.Fatalf("seed %d cfg %d jobs %d gen %d: %v", seed, ci, jobs, gens, err)
					}
					if got.solver.Load() != solver {
						t.Fatalf("seed %d cfg %d jobs %d gen %d: the warm solve did not reuse the solver", seed, ci, jobs, gens)
					}
					warm++
					if gens == 3 || gens == warmChain-1 {
						if got.RegionNodes() > len(next.Syms)/2 {
							big++
						}
					}
					want, err := Solve(pts.NewMemSource(next), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := ptsDump(got, len(next.Syms)), ptsDump(want, len(next.Syms)); g != w {
						t.Fatalf("seed %d cfg %d jobs %d gen %d: warm sets\n%s\nscratch\n%s", seed, ci, jobs, gens, g, w)
					}
					gm, wm := got.Metrics(), want.Metrics()
					if gm.PointerVars != wm.PointerVars || gm.Relations != wm.Relations || gm.InFile != wm.InFile {
						t.Fatalf("seed %d cfg %d jobs %d gen %d: metrics %+v, scratch %+v", seed, ci, jobs, gens, gm, wm)
					}
					if jobs >= 2 && (gm.CacheHits != wm.CacheHits || gm.CacheMisses != wm.CacheMisses) {
						t.Fatalf("seed %d cfg %d jobs %d gen %d: cache %d/%d, scratch %d/%d",
							seed, ci, jobs, gens, gm.CacheHits, gm.CacheMisses, wm.CacheHits, wm.CacheMisses)
					}
					for k, o := range olds {
						if after := ptsDump(o.r, o.n); after != o.dump {
							t.Fatalf("seed %d cfg %d jobs %d gen %d: SolveFrom changed generation %d", seed, ci, jobs, gens, k)
						}
					}
					prog, prev = next, got
					gens++
				}
				if gens < warmChain {
					t.Fatalf("seed %d cfg %d jobs %d: only %d warm generations", seed, ci, jobs, gens)
				}
			}
		}
	}
	if big < warm/warmChain {
		t.Fatalf("only %d of %d big edits had a region of most of the graph", big, 2*warm/warmChain)
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// n-th call on: a deterministic way to stop a solve partway through a
// wave.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSolveFromCancelled: a warm solve cancelled at any of its
// cancellation checks fails with the context's error, leaves the
// previous generation's answers unchanged and discards the solver, so a
// second warm start from it is refused; the scratch solve the caller
// falls back to then warm-starts the next edit, which equals scratch.
func TestSolveFromCancelled(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		cfg := DefaultConfig()
		cfg.Jobs = jobs
		prog := randProgram(5, 300, 1200)
		rng := rand.New(rand.NewSource(5))
		next, ed := bigEdit(rng, prog, false)
		cancelled := 0
		for k := int64(0); ; k++ {
			prev, err := Solve(pts.NewMemSource(prog), cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := ptsDump(prev, len(prog.Syms))
			ctx := &cancelAfter{Context: context.Background()}
			ctx.n.Store(k)
			_, err = SolveFrom(ctx, pts.NewMemSource(next), cfg, prev, ed)
			if err == nil {
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("jobs %d cancel at %d: %v", jobs, k, err)
			}
			cancelled++
			if after := ptsDump(prev, len(prog.Syms)); after != before {
				t.Fatalf("jobs %d cancel at %d: the cancelled solve changed the previous generation", jobs, k)
			}
			if _, err := SolveFrom(context.Background(), pts.NewMemSource(next), cfg, prev, ed); !errors.Is(err, ErrNoWarmStart) {
				t.Fatalf("jobs %d cancel at %d: warm start after a cancelled one: %v, want ErrNoWarmStart", jobs, k, err)
			}
			fallback, err := Solve(pts.NewMemSource(next), cfg)
			if err != nil {
				t.Fatal(err)
			}
			next2, ed2 := bigEdit(rand.New(rand.NewSource(k)), next, true)
			got, err := SolveFrom(context.Background(), pts.NewMemSource(next2), cfg, fallback, ed2)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Solve(pts.NewMemSource(next2), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ptsDump(got, len(next2.Syms)) != ptsDump(want, len(next2.Syms)) {
				t.Fatalf("jobs %d cancel at %d: the edit after the fallback differs from scratch", jobs, k)
			}
		}
		if cancelled < 3 {
			t.Fatalf("jobs %d: only %d cancellation points", jobs, cancelled)
		}
	}
}

// TestSolveFromConcurrentReads: queries on the previous generation run
// concurrently with the warm solve that edits its solver in place (run
// under -race in CI), and keep answering what they answered before.
func TestSolveFromConcurrentReads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jobs = 2
	prog := randProgram(8, 200, 700)
	prev, err := Solve(pts.NewMemSource(prog), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for g := 0; g < warmChain; g++ {
		next, ed := bigEdit(rng, prog, g == warmChain-1)
		want := allSets(prog, prev)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for q := 0; q < 4; q++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					for i := range prog.Syms {
						if got := prev.PointsTo(prim.SymID(i)); !slices.Equal(got, want[i]) {
							t.Errorf("gen %d: pts(%d) changed to %v during the next solve", g, i, got)
							return
						}
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		got, err := SolveFrom(context.Background(), pts.NewMemSource(next), cfg, prev, ed)
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		prog, prev = next, got
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
		Edit{Own: []prim.SymID{0, prim.NoSym}})
	if !errors.Is(err, ErrNoWarmStart) {
		t.Fatalf("open region: err = %v, want ErrNoWarmStart", err)
	}
	cfg := DefaultConfig()
	cfg.DemandLoad = false
	_, err = SolveFrom(context.Background(), pts.NewMemSource(p), cfg, prev,
		Edit{Own: []prim.SymID{0, 1}})
	if !errors.Is(err, ErrNoWarmStart) {
		t.Fatalf("config change: err = %v, want ErrNoWarmStart", err)
	}
	if got := prev.PointsTo(x); !slices.Equal(got, []prim.SymID{g}) {
		t.Fatalf("previous result changed: %v", got)
	}
}

// TestOldGenerationKeepsOnlyItsSnapshot: a warm solve takes the
// solver over, so the previous generation answers from its snapshot
// alone: a second warm start from it is refused, and the solver is
// collectable once the newer generation is dropped, while the old one
// is still held and still answers.
func TestOldGenerationKeepsOnlyItsSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog := randomProgram(rng, 12, 30)
	prev, err := Solve(pts.NewMemSource(prog), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := ptsDump(prev, len(prog.Syms))
	m := make([]prim.SymID, len(prog.Syms))
	for i := range m {
		m[i] = prim.SymID(i)
	}
	got, err := SolveFrom(context.Background(), pts.NewMemSource(prog), DefaultConfig(), prev, Edit{Own: m})
	if err != nil {
		t.Fatal(err)
	}
	if prev.solver.Load() != nil {
		t.Fatal("the previous generation still holds its solver")
	}
	if _, err := SolveFrom(context.Background(), pts.NewMemSource(prog), DefaultConfig(), prev, Edit{Own: m}); !errors.Is(err, ErrNoWarmStart) {
		t.Fatalf("second warm start from one generation: %v, want ErrNoWarmStart", err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(got.solver.Load(), func(*Solver) { close(collected) })
	got = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			if ptsDump(prev, len(prog.Syms)) != want {
				t.Fatal("the previous generation's answers changed")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the solver is still reachable from the previous generation")
}

// shiftEdit derives a new program from old by editing one unit, the
// symbols [lo, hi), the way a one-unit splice does: it removes up to two
// of the unit's symbols whose every mention is a base, simple or load
// assignment into a removed symbol, reorders the unit's kept symbols,
// appends up to two fresh ones to the unit, shifts the symbols after it
// and adds random assignments. It returns the edit in shift form, or a
// nil program when the drawn removals do not qualify.
func shiftEdit(rng *rand.Rand, old *prim.Program, lo, hi int) (*prim.Program, Edit) {
	removed := map[int]bool{}
	for k := rng.Intn(3); k > 0 && hi > lo; k-- {
		removed[lo+rng.Intn(hi-lo)] = true
	}
	for _, a := range old.Assigns {
		if (removed[int(a.Dst)] || removed[int(a.Src)]) &&
			(!removed[int(a.Dst)] || a.Kind == prim.StoreInd || a.Kind == prim.CopyInd) {
			return nil, Edit{}
		}
	}
	var order []int
	for i := lo; i < hi; i++ {
		if !removed[i] {
			order = append(order, i)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	p := &prim.Program{Syms: append([]prim.Symbol(nil), old.Syms[:lo]...)}
	own := make([]prim.SymID, hi-lo)
	for i := range own {
		own[i] = prim.NoSym
	}
	for _, i := range order {
		own[i-lo] = p.AddSym(old.Syms[i])
	}
	for k := rng.Intn(3); k > 0; k-- {
		p.AddSym(prim.Symbol{Name: fmt.Sprintf("n%d_%d", len(old.Syms), len(p.Syms)), Kind: prim.SymGlobal, Type: "int*"})
	}
	delta := prim.SymID(len(p.Syms) - hi)
	p.Syms = append(p.Syms, old.Syms[hi:]...)
	ed := Edit{Lo: prim.SymID(lo), Own: own}
	of := func(id prim.SymID) prim.SymID {
		switch {
		case int(id) < lo:
			return id
		case int(id) >= hi:
			return id + delta
		}
		return own[int(id)-lo]
	}
	for _, a := range old.Assigns {
		if d, s := of(a.Dst), of(a.Src); d != prim.NoSym && s != prim.NoSym {
			a.Dst, a.Src = d, s
			p.AddAssign(a)
		}
	}
	for k := rng.Intn(6); k > 0; k-- {
		a := prim.Assign{
			Kind: prim.Kind(rng.Intn(prim.NumKinds)),
			Dst:  prim.SymID(rng.Intn(len(p.Syms))),
			Src:  prim.SymID(rng.Intn(len(p.Syms))),
		}
		ed.Added = append(ed.Added, a)
	}
	p.Assigns = append(p.Assigns, ed.Added...)
	return p, ed
}

// degenerate returns ed in the form a full link gives: Lo 0 and one Own
// entry per old symbol.
func degenerate(ed Edit, oldN, newN int) Edit {
	full := make([]prim.SymID, oldN)
	hi := int(ed.Lo) + len(ed.Own)
	for i := range full {
		switch {
		case i < int(ed.Lo):
			full[i] = prim.SymID(i)
		case i >= hi:
			full[i] = prim.SymID(i + newN - oldN)
		default:
			full[i] = ed.Own[i-int(ed.Lo)]
		}
	}
	return Edit{Own: full, Added: ed.Added}
}

// TestSolveFromShiftMatchesScratch: on programs of four units, chains of
// one-unit edits at the first, a middle and the last unit, passed in
// shift form to one solver and in the degenerate form of a full link to
// another, give the scratch sets and Table 3 counts, and the two chains
// agree on every Metrics field and on RegionNodes. Each shift-form
// generation's metrics are first read after the next SolveFrom has
// taken its solver over.
func TestSolveFromShiftMatchesScratch(t *testing.T) {
	configs := []Config{
		{Cache: true, CycleElim: true, DemandLoad: true},
		{Cache: true, CycleElim: true, DemandLoad: false},
		{Cache: true, CycleElim: false, DemandLoad: true},
	}
	edits := 0
	for seed := int64(0); seed < 30; seed++ {
		for ci, cfg := range configs {
			for _, jobs := range []int{1, 2} {
				cfg.Jobs = jobs
				cfg.MaxPasses = 10000
				rng := rand.New(rand.NewSource(seed))
				units := []int{2 + rng.Intn(5), 2 + rng.Intn(5), 2 + rng.Intn(5), 2 + rng.Intn(5)}
				n := 0
				for _, u := range units {
					n += u
				}
				prog := randomProgram(rng, n, 3*n)
				shifted, err := Solve(pts.NewMemSource(prog), cfg)
				if err != nil {
					t.Fatal(err)
				}
				full, err := Solve(pts.NewMemSource(prog), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var unread *Result // a shift-form generation whose metrics are unread
				var unreadWant pts.Metrics
				for step, gens := 0, 0; gens < 6 && step < 60; step++ {
					u := []int{0, len(units) / 2, len(units) - 1}[gens%3]
					lo := 0
					for _, l := range units[:u] {
						lo += l
					}
					next, ed := shiftEdit(rng, prog, lo, lo+units[u])
					if next == nil {
						continue
					}
					what := fmt.Sprintf("seed %d cfg %d jobs %d gen %d (unit %d)", seed, ci, jobs, gens, u)
					src := pts.NewMemSource(next)
					gotS, err := SolveFrom(context.Background(), src, cfg, shifted, ed)
					if err != nil {
						t.Fatalf("%s: shift form: %v", what, err)
					}
					gotF, err := SolveFrom(context.Background(), src, cfg, full, degenerate(ed, len(prog.Syms), len(next.Syms)))
					if err != nil {
						t.Fatalf("%s: degenerate form: %v", what, err)
					}
					if unread != nil {
						if m := unread.Metrics(); m != unreadWant {
							t.Fatalf("%s: the previous generation's metrics read after its solver moved on: %+v, want %+v", what, m, unreadWant)
						}
					}
					want, err := Solve(pts.NewMemSource(next), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if g, f, w := ptsDump(gotS, len(next.Syms)), ptsDump(gotF, len(next.Syms)), ptsDump(want, len(next.Syms)); g != w || f != w {
						t.Fatalf("%s: shift-form sets\n%s\ndegenerate\n%s\nscratch\n%s", what, g, f, w)
					}
					fm, wm := gotF.Metrics(), want.Metrics()
					if fm.PointerVars != wm.PointerVars || fm.Relations != wm.Relations || fm.InFile != wm.InFile ||
						jobs >= 2 && (fm.CacheHits != wm.CacheHits || fm.CacheMisses != wm.CacheMisses) {
						t.Fatalf("%s: metrics %+v, scratch %+v", what, fm, wm)
					}
					if gotS.RegionNodes() != gotF.RegionNodes() {
						t.Fatalf("%s: RegionNodes %d in shift form, %d in degenerate form", what, gotS.RegionNodes(), gotF.RegionNodes())
					}
					unread, unreadWant = gotS, fm
					prog, shifted, full = next, gotS, gotF
					units[u] += len(next.Syms) - n
					n = len(next.Syms)
					gens++
					edits++
				}
				if unread != nil && unread.Metrics() != unreadWant {
					t.Fatalf("seed %d cfg %d jobs %d: last generation's metrics %+v, want %+v", seed, ci, jobs, unread.Metrics(), unreadWant)
				}
			}
		}
	}
	if edits < 500 {
		t.Fatalf("only %d shift-form edits qualified", edits)
	}
}

// TestSolveFromRefusesSharedClass: an edit that removes a symbol whose
// class, unified by a cycle, also holds a kept symbol is refused by kill
// in either form of the edit, and leaves the previous generation's
// answers as they were; the same edit keeping the symbol starts warm.
func TestSolveFromRefusesSharedClass(t *testing.T) {
	p := &prim.Program{}
	x := p.AddSym(prim.Symbol{Name: "x", Kind: prim.SymGlobal})
	y := p.AddSym(prim.Symbol{Name: "y", Kind: prim.SymGlobal})
	g := p.AddSym(prim.Symbol{Name: "g", Kind: prim.SymGlobal})
	p.AddAssign(prim.Assign{Kind: prim.Simple, Dst: x, Src: y})
	p.AddAssign(prim.Assign{Kind: prim.Simple, Dst: y, Src: x})
	p.AddAssign(prim.Assign{Kind: prim.Base, Dst: x, Src: g})
	next := &prim.Program{Syms: []prim.Symbol{p.Syms[x], p.Syms[g]}}
	next.AddAssign(prim.Assign{Kind: prim.Base, Dst: 0, Src: 1})
	cfg := DefaultConfig()
	cfg.Jobs = 2
	for _, ed := range []Edit{
		{Lo: 1, Own: []prim.SymID{prim.NoSym}},
		{Own: []prim.SymID{0, prim.NoSym, 1}},
	} {
		prev, err := Solve(pts.NewMemSource(p), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m := prev.Metrics(); m.Unifications == 0 {
			t.Fatalf("the cycle x = y, y = x was not unified: %+v", m)
		}
		before := ptsDump(prev, len(p.Syms))
		if _, err := SolveFrom(context.Background(), pts.NewMemSource(next), cfg, prev, ed); !errors.Is(err, ErrNoWarmStart) {
			t.Fatalf("edit %+v: err = %v, want ErrNoWarmStart", ed, err)
		}
		if ptsDump(prev, len(p.Syms)) != before {
			t.Fatalf("edit %+v: the refused edit changed the previous generation", ed)
		}
	}
	prev, err := Solve(pts.NewMemSource(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveFrom(context.Background(), pts.NewMemSource(p), cfg, prev, Edit{Lo: 1, Own: []prim.SymID{1}}); err != nil {
		t.Fatalf("the edit that keeps y: %v", err)
	}
}

// TestMetricsRaceWithNextSolve: eight goroutines read a fresh warm
// generation's metrics, computed on the first read, while the next
// SolveFrom takes its solver over and edits it in place (run under
// -race in CI); every read returns the same counts.
func TestMetricsRaceWithNextSolve(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jobs = 2
	prog := randProgram(11, 200, 700)
	prev, err := Solve(pts.NewMemSource(prog), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for g := 0; g < warmChain; g++ {
		next, ed := bigEdit(rng, prog, g == warmChain-1)
		cur, err := SolveFrom(context.Background(), pts.NewMemSource(next), cfg, prev, ed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(pts.NewMemSource(next), cfg)
		if err != nil {
			t.Fatal(err)
		}
		wm := want.Metrics()
		after, ed2 := bigEdit(rng, next, false)
		var reads [8]pts.Metrics
		var wg sync.WaitGroup
		for i := range reads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reads[i] = cur.Metrics()
			}()
		}
		nxt, err := SolveFrom(context.Background(), pts.NewMemSource(after), cfg, cur, ed2)
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		for i, m := range reads {
			if m != reads[0] || m.PointerVars != wm.PointerVars || m.Relations != wm.Relations || m.InFile != wm.InFile ||
				m.CacheHits != wm.CacheHits || m.CacheMisses != wm.CacheMisses {
				t.Fatalf("gen %d: read %d got %+v, read 0 %+v, scratch %+v", g, i, m, reads[0], wm)
			}
		}
		prog, prev = after, nxt
	}
}
