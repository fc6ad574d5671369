package core

import (
	"math"

	"cla/internal/prim"
)

// This file implements the region waves of a warm solve. After a
// converged solve every component's set is frozen in the component
// table, and every complex assignment and funcptr record has fired
// against its operand's final set. An edit then dirties a few nodes: a
// node is dirty when it got a base element, got an out-edge or was
// unified since its set was last materialized. A node's lval set can
// change only if it reaches a dirty node, so each wave works on the
// region of nodes that do: it condenses the region alone, materializes
// the region's components (reading the frozen sets of the components
// outside that they have edges into), commits them to the table, and
// fires only the new rules and those whose operand lies in the region.
// A component outside the region keeps its set and its id: nothing it
// reaches changed, and any new cycle passes through a changed node, so
// it lies inside the region.

// warmState is the solver's region-wave state, allocated by the first
// SolveFrom and kept across generations.
type warmState struct {
	side []regionNode // per node

	// dirty lists the nodes dirtied since the last wave (node.dirty).
	dirty []int32
	// ctab is the component table: component id → frozen set (node
	// ids). It only grows, so each snapshot shares a prefix of it,
	// until freezeRegion compacts it into a fresh table.
	ctab [][]prim.SymID

	epoch     int32 // region stamp of the current wave
	markEpoch int32
	reg       []int32   // the wave's region: local id → node
	flat, ef  []int32   // backing arrays of adj and ext
	adj, ext  [][]int32 // per local id: region successors, outside components
	fire      []int32   // indexes of the complex assignments the wave fires
	recs      []int     // funcptr records the wave fires
	relWork   []int32
	ws        []coreWaveWorker
	// regionNodes sums the current solve's region sizes.
	regionNodes int
	// killed and committed list the classes whose component the
	// current solve changed: those kill retired, and the region nodes
	// every wave committed. freezeRegion patches the previous
	// snapshot's table through their member rings.
	killed, committed []int32
	// counted is the component table's length when freezeRegion last
	// counted its live components.
	counted int
}

// regionNode is one node's region-wave state.
type regionNode struct {
	comp  int32 // component of the class (on representatives), -1 for none
	stamp int32 // == warmState.epoch: in the current wave's region
	loc   int32 // local id in the current region
	// markEp dedupes a region node's successors.
	markEp int32
	// next links the members of a class into a ring: a singleton's
	// next is itself, and unify splices two rings into one.
	next int32
	// preds lists the nodes with an edge into this node or into a node
	// unified into it; holders lists the nodes that took this node as a
	// base element. Entries are resolved through find on use.
	preds, holders []int32
}

// adopt allocates the region-wave state from the converged graph and
// its snapshot sn: the component table is sn's, shared, the member
// rings are read off the skip pointers, and the predecessor and holder
// lists off the edges and base elements.
func (s *Solver) adopt(sn *snapshot) {
	w := &warmState{side: make([]regionNode, len(s.nodes)), ctab: sn.sets[:len(sn.sets):len(sn.sets)], counted: len(sn.sets)}
	for i := range w.side {
		w.side[i].comp = sn.comp[i]
		w.side[i].next = int32(i)
	}
	for v := range s.nodes {
		nd := &s.nodes[v]
		if nd.skip >= 0 {
			r := s.find(int32(v))
			w.side[v].next, w.side[r].next = w.side[r].next, int32(v)
			continue
		}
		for _, e := range nd.edges {
			t := s.find(e)
			w.side[t].preds = append(w.side[t].preds, int32(v))
		}
		for _, b := range nd.base {
			w.side[b].holders = append(w.side[b].holders, int32(v))
		}
	}
	s.warm = w
}

// touch marks n dirty.
func (s *Solver) touch(n int32) {
	if nd := &s.nodes[n]; !nd.dirty {
		nd.dirty = true
		s.warm.dirty = append(s.warm.dirty, n)
	}
}

// redirty marks every node of a region dirty again, for a wave that
// restarts before it materialized the region.
func (s *Solver) redirty(reg []int32) {
	for _, v := range reg {
		s.touch(v)
	}
}

// relevantPreds marks every node that reaches r relevant, queueing
// their demand loads. A scratch pass re-adds every rule edge, and
// addEdge re-checks relevance on each; a region wave fires only the
// rules the edit reaches, so relevance travels back along the
// predecessor lists instead.
func (s *Solver) relevantPreds(r int32) {
	w := s.warm
	work := append(w.relWork[:0], r)
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range w.side[v].preds {
			q := s.find(p)
			nd := &s.nodes[q]
			if nd.dead {
				continue
			}
			if nd.relevant {
				if len(nd.unloaded) > 0 {
					s.queueLoads(nd)
				}
				continue
			}
			nd.relevant = true
			s.changed = true
			s.queueLoads(nd)
			work = append(work, q)
		}
	}
	w.relWork = work[:0]
}

// inRegion reports whether the representative of x is in the current
// wave's region. It does not compress skip chains.
func (s *Solver) inRegion(x int32) bool {
	for s.nodes[x].skip >= 0 {
		x = s.nodes[x].skip
	}
	return s.warm.side[x].stamp == s.warm.epoch
}

// region computes the wave's region, the live representatives that
// reach a dirty node, by a backward walk over the predecessor lists,
// and consumes the dirty list. It numbers the region locally and
// returns its condensed adjacency in local ids, self-loops and
// duplicates dropped (scc.Condense's input contract); ext lists, per
// local id, the non-empty components outside the region it has edges
// into.
func (s *Solver) region() [][]int32 {
	w := s.warm
	w.epoch++
	ep := w.epoch
	reg := w.reg[:0]
	add := func(v int32) {
		r := s.find(v)
		if sd := &w.side[r]; !s.nodes[r].dead && sd.stamp != ep {
			sd.stamp = ep
			sd.loc = int32(len(reg))
			reg = append(reg, r)
		}
	}
	for _, d := range w.dirty {
		s.nodes[d].dirty = false
		add(d)
	}
	w.dirty = w.dirty[:0]
	for i := 0; i < len(reg); i++ {
		for _, p := range w.side[reg[i]].preds {
			add(p)
		}
	}
	w.reg = reg
	w.regionNodes += len(reg)

	w.flat, w.ef = w.flat[:0], w.ef[:0]
	ends := make([]int32, 2*len(reg))
	for li, v := range reg {
		if w.markEpoch++; w.markEpoch == math.MaxInt32 {
			for i := range w.side {
				w.side[i].markEp = 0
			}
			w.markEpoch = 1
		}
		for _, e := range s.nodes[v].edges {
			t := s.find(e)
			sd := &w.side[t]
			if t == v || sd.markEp == w.markEpoch {
				continue
			}
			sd.markEp = w.markEpoch
			if sd.stamp == ep {
				w.flat = append(w.flat, sd.loc)
			} else if sd.comp >= 0 && w.ctab[sd.comp] != nil {
				w.ef = append(w.ef, sd.comp)
			}
		}
		ends[2*li], ends[2*li+1] = int32(len(w.flat)), int32(len(w.ef))
	}
	w.adj = resize(w.adj, len(reg))
	w.ext = resize(w.ext, len(reg))
	var a, e int32
	for li := range reg {
		a2, e2 := ends[2*li], ends[2*li+1]
		w.adj[li], w.ext[li] = w.flat[a:a2:a2], w.ef[e:e2:e2]
		a, e = a2, e2
	}
	return w.adj
}

// resize returns a slice of n nil entries, reusing xs's storage.
func resize(xs [][]int32, n int) [][]int32 {
	if cap(xs) < n {
		return make([][]int32, n)
	}
	xs = xs[:n]
	clear(xs)
	return xs
}

// commit freezes the region's materialized sets into the component
// table and points the region's nodes at them. Dirty marks the wave's
// own unifications left on region nodes are satisfied: their sets are
// the ones just committed.
func (s *Solver) commit(wv *wave) {
	w := s.warm
	base := int32(len(w.ctab))
	w.ctab = append(w.ctab, freezeSets(wv.sets)...)
	w.committed = append(w.committed, wv.reg...)
	for c, ms := range wv.members {
		for _, m := range ms {
			w.side[wv.reg[m]].comp = base + int32(c)
		}
	}
	kept := w.dirty[:0]
	for _, d := range w.dirty {
		if s.inRegion(d) {
			s.nodes[d].dirty = false
		} else {
			kept = append(kept, d)
		}
	}
	w.dirty = kept
}

// fireList returns the indexes of the first n complex assignments a
// region wave fires: the new ones, and those whose operand's set it
// recomputed (a store's pointer, a load's source). A scratch wave fires
// all of them and needs no list.
func (s *Solver) fireList(n int) []int32 {
	w := s.warm
	if w == nil {
		return nil
	}
	fire := w.fire[:0]
	for i := 0; i < n; i++ {
		ca := &s.complex[i]
		op := ca.x
		if ca.kind == ckLoad {
			op = ca.y
		}
		if i >= s.fresh || s.inRegion(op) {
			fire = append(fire, int32(i))
		}
	}
	w.fire = fire
	return fire
}

// ptrRecList returns the funcptr records the wave fires: all of them in
// a scratch wave or after an edit added records, otherwise those whose
// pointer's set the wave recomputed.
func (s *Solver) ptrRecList() []int {
	w := s.warm
	if w == nil || s.recsChanged {
		return s.ptrRecs
	}
	recs := w.recs[:0]
	for _, ri := range s.ptrRecs {
		if s.inRegion(int32(s.recs[ri].Func)) {
			recs = append(recs, ri)
		}
	}
	w.recs = recs
	return recs
}

// freezeRegion builds a warm generation's snapshot over the component
// table, which the snapshot shares: a copy of the previous snapshot's
// node → component map, patched through the member rings of the classes
// this solve retired or committed. Nodes it added start with none. When
// the table has doubled since its live components were last counted, it
// counts them, and when dead components, those no live class uses any
// more, outnumber live ones, it compacts the table into a fresh one;
// older snapshots keep the table they share.
func (s *Solver) freezeRegion() *snapshot {
	w := s.warm
	comp := make([]int32, len(s.nodes))
	for i := copy(comp, s.snap.comp); i < len(comp); i++ {
		comp[i] = -1
	}
	w.epoch++
	ep := w.epoch
	patch := func(r, c int32) {
		for m := r; ; {
			comp[m] = c
			if m = w.side[m].next; m == r {
				return
			}
		}
	}
	for _, r := range w.killed {
		patch(r, -1)
	}
	for _, v := range w.committed {
		r := s.find(v)
		if sd := &w.side[r]; sd.stamp != ep && !s.nodes[r].dead {
			sd.stamp = ep
			patch(r, sd.comp)
		}
	}
	w.killed, w.committed = w.killed[:0], w.committed[:0]
	if len(w.ctab) >= 2*w.counted {
		s.compact(comp)
		w.counted = len(w.ctab)
	}
	return &snapshot{
		comp: comp, sets: w.ctab[:len(w.ctab):len(w.ctab)],
		symNode: s.symNode, nodeSym: s.nodeSym,
	}
}

// compact moves the component table into a fresh one when dead
// components outnumber live ones, renumbering comp, the new snapshot's
// node → component map, and the classes' components.
func (s *Solver) compact(comp []int32) {
	w := s.warm
	used := make([]bool, len(w.ctab))
	live := 0
	for _, c := range comp {
		if c >= 0 && !used[c] {
			used[c] = true
			live++
		}
	}
	if len(w.ctab) <= 2*live {
		return
	}
	ids := make([]int32, len(w.ctab))
	tab := make([][]prim.SymID, 0, live)
	for c, u := range used {
		if u {
			ids[c] = int32(len(tab))
			tab = append(tab, w.ctab[c])
		}
	}
	for i, c := range comp {
		if c >= 0 {
			comp[i] = ids[c]
		}
		w.side[i].comp = comp[i]
	}
	w.ctab = tab
}
