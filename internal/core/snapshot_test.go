package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cla/internal/prim"
	"cla/internal/pts"
)

// randProgram builds a pseudo-random constraint workload with cycles,
// stores and loads so the snapshot exercises multi-member components,
// shared sets and several DAG levels.
func randProgram(seed int64, nsyms, nassign int) *prim.Program {
	rng := rand.New(rand.NewSource(seed))
	p := &prim.Program{}
	for i := 0; i < nsyms; i++ {
		p.AddSym(prim.Symbol{Name: fmt.Sprintf("s%d", i), Kind: prim.SymGlobal})
	}
	pick := func() prim.SymID { return prim.SymID(rng.Intn(nsyms)) }
	for i := 0; i < nassign; i++ {
		a := prim.Assign{Dst: pick(), Src: pick(), Strength: prim.Strong}
		switch rng.Intn(10) {
		case 0:
			a.Kind = prim.Base
		case 1:
			a.Kind = prim.StoreInd
		case 2:
			a.Kind = prim.LoadInd
		default:
			a.Kind = prim.Simple
		}
		p.AddAssign(a)
	}
	return p
}

// allSets snapshots every symbol's points-to set as plain slices.
func allSets(p *prim.Program, r *Result) [][]prim.SymID {
	out := make([][]prim.SymID, len(p.Syms))
	for i := range p.Syms {
		out[i] = append([]prim.SymID(nil), r.PointsTo(prim.SymID(i))...)
	}
	return out
}

// TestSnapshotMatchesAtAnyWorkerCount solves the same workload at
// different worker counts. jobs >= 2 selects the wave fixpoint, whose
// schedule counters (passes, unifications, cache behaviour, edges)
// legitimately differ from the sequential reference — but the analysis
// outcome (points-to sets and the mode-independent metrics) must be
// identical at every jobs value, and the wave path itself must produce
// identical metrics at any worker count.
func TestSnapshotMatchesAtAnyWorkerCount(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		p := randProgram(seed, 120, 400)
		cfg := DefaultConfig()
		cfg.Jobs = 1
		r1, err := Solve(pts.NewMemSource(p), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := allSets(p, r1)
		m1 := r1.Metrics()
		var waveMetrics pts.Metrics
		for _, jobs := range []int{2, 8} {
			cfg.Jobs = jobs
			rj, err := Solve(pts.NewMemSource(p), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, allSets(p, rj)) {
				t.Errorf("seed %d: points-to sets differ between jobs=1 and jobs=%d", seed, jobs)
			}
			mj := rj.Metrics()
			if mj.PointerVars != m1.PointerVars || mj.Relations != m1.Relations ||
				mj.InCore != m1.InCore || mj.Loaded != m1.Loaded || mj.InFile != m1.InFile {
				t.Errorf("seed %d jobs=%d: mode-independent metrics differ:\n  jobs=1: %+v\n  jobs=%d: %+v",
					seed, jobs, m1, jobs, mj)
			}
			if mj.Waves == 0 || mj.SCCRounds == 0 {
				t.Errorf("seed %d jobs=%d: wave counters not populated: %+v", seed, jobs, mj)
			}
			if jobs == 2 {
				waveMetrics = mj
			} else if mj != waveMetrics {
				t.Errorf("seed %d: wave metrics depend on worker count:\n  jobs=2: %+v\n  jobs=%d: %+v",
					seed, waveMetrics, jobs, mj)
			}
		}
	}
}

// TestSnapshotMatchesEveryConfig checks the frozen query path against all
// ablation configurations — the snapshot must not depend on which
// fixpoint optimizations ran.
func TestSnapshotMatchesEveryConfig(t *testing.T) {
	p := randProgram(3, 80, 260)
	var want [][]prim.SymID
	for i, cfg := range []Config{
		DefaultConfig(),
		{Cache: true, DemandLoad: true},
		{CycleElim: true, DemandLoad: true},
		{DemandLoad: true},
		{},
	} {
		r, err := Solve(pts.NewMemSource(p), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := allSets(p, r)
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("config %+v: points-to sets differ from DefaultConfig", cfg)
		}
	}
}

// TestFrozenWaveMatchesSequentialFreeze: at Jobs >= 2 the snapshot is
// the confirming wave's. On the randProgram seeds, under every ablation
// config, for a scratch solve and a warm solve from it, the frozen
// snapshot must hold the sets the sequential fixpoint's freeze builds
// from a copy of the same converged graph, partition the nodes into the
// same components, and leave Unifications and the cache accounting
// where that freeze would.
func TestFrozenWaveMatchesSequentialFreeze(t *testing.T) {
	configs := []Config{
		DefaultConfig(),
		{Cache: true, DemandLoad: true},
		{CycleElim: true, DemandLoad: true},
		{Cache: true, CycleElim: true},
		{DemandLoad: true},
		{},
	}
	check := func(name string, r *Result) {
		got := r.snap
		ref := *r.solver.Load()
		ref.m = pts.Metrics{}
		want, err := ref.freezeSeq(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want.symNode, want.nodeSym = ref.symNode, ref.nodeSym
		want.count(&ref.m, ref.src, ref.cfg.Cache)
		fwd, back := map[int32]int32{}, map[int32]int32{}
		for i := range ref.nodes {
			n := int32(i)
			if !slices.Equal(got.lvals(n), want.lvals(n)) {
				t.Fatalf("%s: node %d: frozen %v, sequential freeze %v", name, n, got.lvals(n), want.lvals(n))
			}
			a, b := got.comp[n], want.comp[n]
			if a < 0 {
				continue // a dead node, or one no wave has reached: empty either way
			}
			if x, ok := fwd[a]; ok && x != b {
				t.Fatalf("%s: node %d: frozen component %d spans sequential components %d and %d", name, n, a, x, b)
			}
			if y, ok := back[b]; ok && y != a {
				t.Fatalf("%s: node %d: sequential component %d spans frozen components %d and %d", name, n, b, y, a)
			}
			fwd[a], back[b] = b, a
		}
		m := r.Metrics()
		if ref.m.Unifications != 0 {
			t.Errorf("%s: the sequential freeze would credit %d more unifications", name, ref.m.Unifications)
		}
		if m.CacheHits != ref.m.CacheHits || m.CacheMisses != ref.m.CacheMisses ||
			m.PointerVars != ref.m.PointerVars || m.Relations != ref.m.Relations {
			t.Errorf("%s: metrics %+v, with the sequential freeze %+v", name, m, ref.m)
		}
	}
	for _, seed := range []int64{1, 3, 7, 9, 11, 23, 42} {
		p := randProgram(seed, 120, 400)
		for ci, base := range configs {
			for _, jobs := range []int{2, 8} {
				cfg := base
				cfg.Jobs = jobs
				name := fmt.Sprintf("seed %d config %d jobs %d", seed, ci, jobs)
				r, err := Solve(pts.NewMemSource(p), cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(name+" scratch", r)

				rng := rand.New(rand.NewSource(seed))
				var next *prim.Program
				var ed Edit
				for try := 0; next == nil && try < 50; try++ {
					next, ed = warmEdit(rng, p)
				}
				if next == nil {
					t.Fatalf("%s: no warm edit qualified", name)
				}
				w, err := SolveFrom(context.Background(), pts.NewMemSource(next), cfg, r, ed)
				if err != nil {
					t.Fatalf("%s warm: %v", name, err)
				}
				check(name+" warm", w)
			}
		}
	}
}

// TestConcurrentPointsTo hammers a solved Result from many goroutines.
// Run under -race this verifies the frozen snapshot is truly read-only:
// queries share the materialized sets with no synchronization.
func TestConcurrentPointsTo(t *testing.T) {
	p := randProgram(11, 150, 500)
	r, err := Solve(pts.NewMemSource(p), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := allSets(p, r)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i := range p.Syms {
					got := r.PointsTo(prim.SymID(i))
					if len(got) != len(want[i]) {
						t.Errorf("goroutine %d: pts(%d) has %d elements, want %d",
							g, i, len(got), len(want[i]))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
