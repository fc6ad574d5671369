package core

import (
	"context"
	"errors"
	"slices"

	"cla/internal/prim"
	"cla/internal/pts"
)

// This file implements the warm start: a new generation of a program is
// solved from the previous generation's converged graph instead of from
// nothing. The caller (the incremental pipeline) describes how the new
// program relates to the old one; SolveFrom copies the old graph through
// that description into a fresh Solver and iterates it to the least
// fixpoint with the ordinary loops.
//
// The old fixpoint is a sound starting point only when it holds no fact
// the new program would not derive. The caller establishes the
// assignment-level conditions (every dropped assignment is a base,
// simple or load assignment into a removed symbol, every function
// record is kept unchanged, and kept symbols keep their kind and
// function-pointer mark); SolveFrom checks the graph-level one while
// it copies: the kept region is closed, i.e. no kept class holds a
// removed symbol as a base element, has an edge into a dropped class or
// shares a class with a removed symbol. Under those conditions the old
// graph restricted to kept nodes derives exactly the points-to sets of
// the kept constraints' least fixpoint (DESIGN.md, "Warm start").

// Edit relates a new program to the one a previous Result solved.
type Edit struct {
	// Map takes each old symbol id to its id in the new program, or
	// prim.NoSym for a removed symbol. It must be injective.
	Map []prim.SymID
	// Added lists the new program's assignments (in new ids) that have
	// no image among the old program's.
	Added []prim.Assign
}

// ErrNoWarmStart reports that the previous graph cannot seed the new
// program; the caller solves from scratch instead.
var ErrNoWarmStart = errors.New("core: previous fixpoint cannot seed this program")

// SolveFrom solves src starting from prev's converged graph, mapped
// through ed, and returns the same points-to sets as SolveCtx(ctx, src,
// cfg). It reads prev without mutating it and shares none of its slices,
// so prev stays a valid, immutable generation and becomes collectable as
// soon as the caller drops it. The returned Result's Passes, EdgesAdded,
// Loaded and Unifications describe the warm solve; PointerVars and
// Relations equal a scratch solve's, and so do CacheHits and
// CacheMisses at Jobs >= 2, where the snapshot is their only source.
// ErrNoWarmStart means prev cannot seed src: prev was solved under a
// different Config or the kept region of its graph is not closed.
func SolveFrom(ctx context.Context, src pts.Source, cfg Config, prev *Result, ed Edit) (*Result, error) {
	old := prev.s
	if cfg.Cache != old.cfg.Cache || cfg.CycleElim != old.cfg.CycleElim ||
		cfg.DemandLoad != old.cfg.DemandLoad || len(ed.Map) != int(old.numSyms) {
		return nil, ErrNoWarmStart
	}
	// seed adds a node per surviving auxiliary class of old: size the
	// table for all of old's, so it does not grow by doubling.
	s := newSolver(src, cfg, len(old.nodes)-int(old.numSyms))
	if !s.seed(old, ed.Map) {
		return nil, ErrNoWarmStart
	}
	if err := s.addLoaded(ed.Added); err != nil {
		return nil, err
	}
	return s.run(ctx)
}

// seed copies old's converged graph into s through m: every class of
// kept nodes with its base elements, edges, deref node and relevance;
// the flattened unifications as skip pointers; the loaded blocks; and
// the complex assignments between kept nodes. Classes of removed
// symbols, and the deref nodes hanging off them, are dropped. It
// reports false when the kept region is not closed.
func (s *Solver) seed(old *Solver, m []prim.SymID) bool {
	rep := old.snap.rep
	nOld := len(old.nodes)

	// Classify old classes: a class holding a removed symbol is dropped,
	// and so, transitively, is its deref node's class.
	drop := make([]bool, nOld)
	kept := make([]bool, nOld)
	taken := make([]bool, s.numSyms)
	for i := int32(0); i < old.numSyms; i++ {
		if m[i] == prim.NoSym {
			drop[rep[i]] = true
			continue
		}
		if m[i] < 0 || int32(m[i]) >= s.numSyms || taken[m[i]] {
			return false
		}
		taken[m[i]] = true
		kept[rep[i]] = true
	}
	var work []int32
	for r := range drop {
		if drop[r] {
			work = append(work, int32(r))
		}
	}
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		if kept[r] {
			return false // a removed symbol unified with a kept one
		}
		if d := old.nodes[r].deref; d >= 0 && !drop[rep[d]] {
			drop[rep[d]] = true
			work = append(work, rep[d])
		}
	}

	// New ids: symbols keep their mapped slot, every surviving auxiliary
	// class representative gets a fresh node after the symbols, and an
	// auxiliary non-representative collapses onto its class.
	newID := make([]int32, nOld)
	for i := range newID {
		newID[i] = -1
	}
	for i := int32(0); i < old.numSyms; i++ {
		if m[i] != prim.NoSym {
			newID[i] = int32(m[i])
		}
	}
	for i := old.numSyms; i < int32(nOld); i++ {
		if rep[i] == i && !drop[i] {
			newID[i] = s.newNode()
		}
	}
	for i := old.numSyms; i < int32(nOld); i++ {
		if rep[i] != i && !drop[rep[i]] {
			newID[i] = newID[rep[i]]
		}
	}

	// Copy every kept class onto its representative's new node.
	seen := make([]int32, len(s.nodes))
	epoch := int32(0)
	for r := int32(0); r < int32(nOld); r++ {
		if rep[r] != r || drop[r] {
			continue
		}
		on := &old.nodes[r]
		nr := newID[r]
		nd := &s.nodes[nr]
		nd.relevant = on.relevant
		if len(on.base) > 0 {
			nd.base = make([]prim.SymID, len(on.base))
			for k, b := range on.base {
				if m[b] == prim.NoSym {
					return false // a kept class points to a removed symbol
				}
				nd.base[k] = m[b]
			}
			slices.Sort(nd.base)
		}
		if len(on.edges) > 0 {
			epoch++
			nd.edges = make([]int32, 0, len(on.edges))
			for _, e := range on.edges {
				t := newID[rep[e]]
				if t < 0 {
					return false // an edge into a dropped class
				}
				if t == nr || seen[t] == epoch {
					continue
				}
				seen[t] = epoch
				nd.edges = append(nd.edges, t)
			}
		}
		if on.deref >= 0 {
			nd.deref = newID[rep[on.deref]]
			if nd.deref < 0 {
				return false
			}
		}
	}
	for i := int32(0); i < old.numSyms; i++ {
		if n := newID[i]; n >= 0 {
			if r := newID[rep[i]]; r != n {
				s.nodes[n].skip = r
			}
			s.loadedBlk[n] = old.loadedBlk[i]
		}
	}

	// Complex assignments between kept nodes survive; a load into a
	// dropped class was a removed assignment and goes with it.
	s.complex = make([]complexAssign, 0, len(old.complex))
	for _, ca := range old.complex {
		x, y := newID[ca.x], newID[ca.y]
		if x < 0 && ca.kind == ckLoad {
			continue
		}
		if x < 0 || y < 0 {
			return false
		}
		s.complex = append(s.complex, complexAssign{kind: ca.kind, x: x, y: y})
	}

	// Blocks not yet loaded wait on their class, as in a scratch solve;
	// a relevant class loads them before the first pass.
	for i := int32(0); i < s.numSyms; i++ {
		if s.loadedBlk[i] || s.src.BlockLen(prim.SymID(i)) == 0 {
			continue
		}
		r := s.find(i)
		if s.nodes[r].relevant || !s.cfg.DemandLoad {
			s.loadQueue = append(s.loadQueue, i)
		} else {
			s.nodes[r].unloaded = append(s.nodes[r].unloaded, i)
		}
	}
	return true
}

// addLoaded applies the added assignments the seeded graph has not seen:
// every base assignment, and every other assignment whose source block
// was already loaded (an unloaded block reads them when it loads).
func (s *Solver) addLoaded(added []prim.Assign) error {
	for _, a := range added {
		if a.Dst < 0 || int32(a.Dst) >= s.numSyms || a.Src < 0 || int32(a.Src) >= s.numSyms {
			return ErrNoWarmStart
		}
		if a.Kind != prim.Base && !s.loadedBlk[a.Src] {
			continue
		}
		s.m.Loaded++
		s.apply(a)
	}
	return nil
}
