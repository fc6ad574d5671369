package core

import (
	"context"
	"errors"

	"cla/internal/prim"
	"cla/internal/pts"
)

// This file implements the warm start: a new generation of a program is
// solved from the previous generation's converged graph instead of from
// nothing. The caller (the incremental pipeline) describes how the new
// program relates to the old one; SolveFrom takes over the previous
// generation's solver, applies that description to its graph in place
// (rebind) and re-solves the region the edit reaches (region.go).
//
// The old fixpoint is a sound starting point only when it holds no fact
// the new program would not derive. The caller establishes the
// assignment-level conditions (every dropped assignment is a base,
// simple or load assignment into a removed symbol, every function
// record is kept unchanged, and kept symbols keep their kind and
// function-pointer mark); SolveFrom checks the graph-level one when it
// retires the removed symbols' classes (kill): the kept region is
// closed, i.e. no kept class holds a removed symbol as a base element,
// has an edge into a dropped class or shares a class with a removed
// symbol. Under those conditions the old graph restricted to kept nodes
// derives exactly the points-to sets of the kept constraints' least
// fixpoint (DESIGN.md, "Warm start").

// Edit relates a new program to the one a previous Result solved, in
// the shape a one-unit splice gives it (linker.Shift): an old symbol id
// below Lo keeps its id, old id Lo+i becomes Own[i] (prim.NoSym for a
// removed symbol), and the old ids after Own's range move by the change
// in the symbol count. Own's new ids lie in its range so shifted, Lo up
// to the first moved id, and are distinct. Any other map is an Edit of
// Lo 0 and one Own entry per old symbol, as a full link's is.
type Edit struct {
	Lo  prim.SymID
	Own []prim.SymID
	// Added lists the new program's assignments (in new ids) that have
	// no image among the old program's.
	Added []prim.Assign
}

// keeps reports whether old symbol x has an image in the new program.
func (ed *Edit) keeps(x int32) bool {
	i := x - int32(ed.Lo)
	return i < 0 || int(i) >= len(ed.Own) || ed.Own[i] != prim.NoSym
}

// ErrNoWarmStart reports that the previous graph cannot seed the new
// program; the caller solves from scratch instead.
var ErrNoWarmStart = errors.New("core: previous fixpoint cannot seed this program")

// SolveFrom solves src starting from prev's converged graph, mapped
// through ed, and returns the same points-to sets as SolveCtx(ctx, src,
// cfg). It takes over prev's solver and edits it in place: removed
// symbols' nodes go dead, new symbols get new nodes, the added
// assignments are applied, and region waves re-solve only the nodes
// that can reach a change (region.go). A Result hands its solver to at
// most one successor, so prev answers from its snapshot alone
// afterwards, unchanged; a second SolveFrom from prev reports
// ErrNoWarmStart. A SolveFrom that fails, is refused or is cancelled
// discards the solver, so the next warm start from prev is refused too
// and the caller solves from scratch.
//
// The returned Result's Passes, EdgesAdded, Loaded and Unifications
// describe the warm solve; PointerVars and Relations equal a scratch
// solve's, and so do CacheHits and CacheMisses at Jobs >= 2, where the
// snapshot is their only source. ErrNoWarmStart means prev cannot seed
// src: prev's solver is gone, prev was solved under a different Config,
// or the kept region of its graph is not closed.
func SolveFrom(ctx context.Context, src pts.Source, cfg Config, prev *Result, ed Edit) (*Result, error) {
	s := prev.solver.Swap(nil)
	if s == nil || cfg.Cache != s.cfg.Cache || cfg.CycleElim != s.cfg.CycleElim ||
		cfg.DemandLoad != s.cfg.DemandLoad || ed.Lo < 0 || int(ed.Lo)+len(ed.Own) > int(s.numSyms) {
		return nil, ErrNoWarmStart
	}
	s.setConfig(cfg)
	s.m = pts.Metrics{}
	if s.warm == nil {
		s.adopt(prev.snap)
	}
	s.warm.regionNodes = 0
	if !s.rebind(src, ed) {
		return nil, ErrNoWarmStart
	}
	return s.run(ctx)
}

// rebind binds the solver to the new program src: symbols outside
// ed.Own's range keep their nodes, those in it move through ed.Own, new
// symbols get new nodes, removed symbols' classes go dead (kill), and
// the added assignments are applied. The symbol↔node tables are copied
// in bulk and patched in Own's range, so a rebind costs the changed
// range and a copy, not a pass over the symbols. It reports false when
// ed.Own does not map into its range injectively or the kept region is
// not closed.
func (s *Solver) rebind(src pts.Source, ed Edit) bool {
	oldN, newN := s.numSyms, int32(src.NumSyms())
	lo, hi := int32(ed.Lo), int32(ed.Lo)+int32(len(ed.Own))
	nhi := hi + newN - oldN // where Own's range ends in new ids
	if nhi < lo {
		return false
	}
	symNode := make([]int32, newN)
	s.copyNodes(symNode[:lo], 0)
	s.copyNodes(symNode[nhi:], hi)
	for t := lo; t < nhi; t++ {
		symNode[t] = -1
	}
	var gone []int32
	for i, t := range ed.Own {
		n := s.node(lo + int32(i))
		if t == prim.NoSym {
			gone = append(gone, n)
			continue
		}
		if int32(t) < lo || int32(t) >= nhi || symNode[t] >= 0 {
			return false
		}
		symNode[t] = n
	}
	if len(gone) > 0 && !s.kill(gone, &ed) {
		return false
	}

	// Every old node keeps its symbol, moved like the ids; Own's range
	// is then rebound, its removed symbols' nodes to none.
	nodeSym := make([]int32, len(s.nodes), len(s.nodes)+int(nhi-lo))
	n := copy(nodeSym, s.nodeSym)
	for ; n < len(nodeSym); n++ {
		nodeSym[n] = s.symOf(int32(n))
	}
	if delta := newN - oldN; delta != 0 {
		for n, t := range nodeSym {
			if t >= hi {
				nodeSym[n] = t + delta
			}
		}
	}
	for i, t := range ed.Own {
		nodeSym[s.node(lo+int32(i))] = int32(t)
	}
	s.src, s.numSyms, s.symNode, s.nodeSym = src, newN, symNode, nodeSym
	var added []int32
	for t := lo; t < nhi; t++ {
		if symNode[t] < 0 {
			symNode[t] = s.newNode()
			s.nodeSym = append(s.nodeSym, t)
			added = append(added, t)
		}
	}
	s.recsChanged = s.bindFuncs()

	// A new symbol's block waits on its node, as in a scratch solve.
	for _, t := range added {
		if src.BlockLen(prim.SymID(t)) > 0 {
			s.waitBlock(symNode[t])
		}
	}
	// Apply the added assignments the graph has not seen: every base
	// assignment, and every other one whose source block was already
	// loaded (an unloaded block reads them when it loads, and its node
	// waits for that, if it did not already).
	for _, a := range ed.Added {
		if a.Dst < 0 || int32(a.Dst) >= newN || a.Src < 0 || int32(a.Src) >= newN {
			return false
		}
		if n := symNode[a.Src]; a.Kind != prim.Base && !s.nodes[n].loaded {
			s.waitBlock(n)
			continue
		}
		s.m.Loaded++
		s.apply(a)
	}
	return true
}

// copyNodes copies the nodes of the current program's symbols from,
// from+1, ... into dst.
func (s *Solver) copyNodes(dst []int32, from int32) {
	if s.symNode != nil {
		copy(dst, s.symNode[from:])
		return
	}
	for i := range dst {
		dst[i] = from + int32(i)
	}
}

// waitBlock queues the load of symbol node n's block, now if its class
// is relevant (or demand loading is off), or when the class becomes
// relevant.
func (s *Solver) waitBlock(n int32) {
	r := s.find(n)
	if s.nodes[r].relevant || !s.cfg.DemandLoad {
		s.loadQueue = append(s.loadQueue, n)
	} else {
		s.nodes[r].unloaded = append(s.nodes[r].unloaded, n)
	}
}

// kill retires the classes of the removed symbols' nodes (gone) and,
// transitively, their deref nodes' classes. It reports false when the
// kept region is not closed: a dead class holds a kept symbol, a live
// class has an edge into a dead one or holds a removed symbol as a base
// element, or a complex assignment other than a load into a dead class
// touches one. Loads into dead classes are dropped. It reads the dead
// classes' members, predecessors and holders, and the complex
// assignments only when a dead member is an operand of one.
func (s *Solver) kill(gone []int32, ed *Edit) bool {
	w := s.warm
	w.epoch++
	ep := w.epoch
	dead := w.killed[:0]
	mark := func(v int32) {
		if r := s.find(v); w.side[r].stamp != ep {
			w.side[r].stamp = ep
			dead = append(dead, r)
		}
	}
	for _, n := range gone {
		mark(n)
	}
	for i := 0; i < len(dead); i++ {
		if d := s.nodes[dead[i]].deref; d >= 0 {
			mark(d)
		}
	}
	w.killed = dead
	isDead := func(v int32) bool { return w.side[s.find(v)].stamp == ep }
	operands := false
	for _, r := range dead {
		for m := r; ; {
			if x := s.symOf(m); x >= 0 && ed.keeps(x) {
				return false
			}
			operands = operands || s.nodes[m].operand
			if m = w.side[m].next; m == r {
				break
			}
		}
		for _, p := range w.side[r].preds {
			if !isDead(p) {
				return false
			}
		}
	}
	for _, n := range gone {
		for _, h := range w.side[n].holders {
			if !isDead(h) {
				return false
			}
		}
	}
	if operands {
		kept := s.complex[:0]
		for _, ca := range s.complex {
			dx, dy := isDead(ca.x), isDead(ca.y)
			if dx && ca.kind == ckLoad {
				continue
			}
			if dx || dy {
				return false
			}
			kept = append(kept, ca)
		}
		clear(s.complex[len(kept):])
		s.complex = kept
		s.fresh = len(kept)
	}

	for _, r := range dead {
		nd := &s.nodes[r]
		nd.dead, nd.relevant = true, false
		nd.edges, nd.eset, nd.base, nd.unloaded = nil, nil, nil, nil
		nd.deref = -1
		w.side[r].comp, w.side[r].preds = -1, nil
	}
	for _, n := range gone {
		w.side[n].holders = nil
	}
	return true
}
