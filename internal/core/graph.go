package core

import (
	"sort"

	"cla/internal/prim"
	"cla/internal/pts/set"
)

// find returns the representative of n, compressing skip chains.
func (s *Solver) find(n int32) int32 {
	root := n
	for s.nodes[root].skip >= 0 {
		root = s.nodes[root].skip
	}
	for s.nodes[n].skip >= 0 {
		next := s.nodes[n].skip
		s.nodes[n].skip = root
		n = next
	}
	return root
}

// newNode allocates a node: an auxiliary one (deref nodes, copy
// temporaries) or, in a warm solve, one for a new symbol.
func (s *Solver) newNode() int32 {
	id := int32(len(s.nodes))
	s.nodes = append(s.nodes, node{skip: -1, deref: -1})
	// Grow traversal scratch lazily in reach.go.
	if s.warm != nil {
		s.warm.side = append(s.warm.side, regionNode{comp: -1, next: id})
	}
	return id
}

// derefNode returns n(*y) for the representative of y, creating it on
// demand.
func (s *Solver) derefNode(y int32) int32 {
	r := s.find(y)
	if s.nodes[r].deref >= 0 {
		return s.find(s.nodes[r].deref)
	}
	d := s.newNode()
	s.nodes[r].deref = d
	return d
}

// addBase records lval ∈ baseElements(n(dst)) and makes dst relevant.
// lval is the object's node id.
func (s *Solver) addBase(dst int32, lval prim.SymID) {
	r := s.find(dst)
	b := s.nodes[r].base
	i := sort.Search(len(b), func(i int) bool { return b[i] >= lval })
	if i < len(b) && b[i] == lval {
		return
	}
	b = append(b, 0)
	copy(b[i+1:], b[i:])
	b[i] = lval
	s.nodes[r].base = b
	s.nodes[r].cachePass = 0
	s.changed = true
	if w := s.warm; w != nil {
		w.side[lval].holders = append(w.side[lval].holders, r)
		s.touch(r)
	}
	s.markRelevant(r)
}

// addEdge inserts n(a) → n(b). Relevance is re-checked even for existing
// edges so that late relevance (b became relevant after the edge appeared)
// still propagates on the next pass.
func (s *Solver) addEdge(a, b int32) bool {
	a, b = s.find(a), s.find(b)
	if a == b {
		return false
	}
	if s.nodes[b].relevant {
		s.markRelevant(a)
	}
	na := &s.nodes[a]
	if na.eset == nil {
		na.eset = new(set.Sparse)
		for _, e := range na.edges {
			na.eset.Add(e)
		}
	}
	if !na.eset.Add(b) {
		return false
	}
	na.edges = append(na.edges, b)
	na.cachePass = 0
	s.m.EdgesAdded++
	s.changed = true
	if w := s.warm; w != nil {
		w.side[b].preds = append(w.side[b].preds, a)
		s.touch(a)
	}
	return true
}

// markRelevant flags the node as able to contribute lvals, queueing the
// demand load of every member symbol's block.
func (s *Solver) markRelevant(n int32) {
	r := s.find(n)
	nd := &s.nodes[r]
	if nd.relevant {
		if len(nd.unloaded) > 0 {
			s.queueLoads(nd)
		}
		return
	}
	nd.relevant = true
	s.changed = true
	s.queueLoads(nd)
	if s.warm != nil {
		s.relevantPreds(r)
	}
}

func (s *Solver) queueLoads(nd *node) {
	if !s.cfg.DemandLoad {
		nd.unloaded = nil
		return
	}
	s.loadQueue = append(s.loadQueue, nd.unloaded...)
	nd.unloaded = nil
}

// drainLoads performs queued block loads until quiescence.
func (s *Solver) drainLoads() error {
	for len(s.loadQueue) > 0 {
		sym := s.loadQueue[len(s.loadQueue)-1]
		s.loadQueue = s.loadQueue[:len(s.loadQueue)-1]
		if err := s.loadBlock(sym); err != nil {
			return err
		}
	}
	return nil
}

// loadBlock reads the assignments whose source is node n's symbol and
// converts them to graph state (apply): simple assignments become edges
// (and are discarded); complex assignments are retained in core.
func (s *Solver) loadBlock(n int32) error {
	if n < 0 || int(n) >= len(s.nodes) || s.nodes[n].loaded {
		return nil
	}
	s.nodes[n].loaded = true
	sym := s.symOf(n)
	if sym < 0 {
		return nil
	}
	entries, err := s.src.Block(prim.SymID(sym))
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return nil
	}
	s.m.Loaded += len(entries)
	s.changed = true
	for _, a := range entries {
		s.apply(a)
	}
	return nil
}

// apply converts one assignment of the current program to graph state:
// a simple assignment becomes an edge, a complex one is retained in
// core. *x = *y is split through a fresh auxiliary node t: t = *y;
// *x = t.
func (s *Solver) apply(a prim.Assign) {
	d := s.node(int32(a.Dst))
	src := s.node(int32(a.Src))
	switch a.Kind {
	case prim.Simple:
		// d = src: edge n(d) → n(src); d becomes relevant via the edge
		// rule because src is relevant.
		s.addEdge(d, src)
	case prim.StoreInd: // *d = src
		s.addComplex(ckStore, d, src)
	case prim.LoadInd: // d = *src
		s.addComplex(ckLoad, d, src)
	case prim.CopyInd: // *d = *src → t = *src; *d = t
		t := s.newNode()
		s.addComplex(ckLoad, t, src)
		s.addComplex(ckStore, d, t)
	case prim.Base:
		// Base assignments live in the static section; one appearing in
		// a block indicates database corruption.
		s.addBase(d, prim.SymID(src))
	}
}

// addComplex retains the complex assignment x, y of kind k in core.
func (s *Solver) addComplex(k complexKind, x, y int32) {
	s.complex = append(s.complex, complexAssign{kind: k, x: x, y: y})
	s.nodes[x].operand, s.nodes[y].operand = true, true
}

// unify merges node a into node b (the paper's unifyNode with skip
// pointers), combining edges, base elements, deref nodes, relevance and
// pending loads. Callers pass representatives.
func (s *Solver) unify(a, b int32) int32 {
	a, b = s.find(a), s.find(b)
	if a == b {
		return a
	}
	// Merge the smaller structure into the larger.
	if len(s.nodes[a].edges)+len(s.nodes[a].base) > len(s.nodes[b].edges)+len(s.nodes[b].base) {
		a, b = b, a
	}
	na, nb := &s.nodes[a], &s.nodes[b]
	s.m.Unifications++

	na.skip = b
	if w := s.warm; w != nil {
		w.side[b].preds = append(w.side[b].preds, w.side[a].preds...)
		w.side[a].preds = nil
		w.side[a].next, w.side[b].next = w.side[b].next, w.side[a].next
		s.touch(b)
	}

	// Edges.
	if nb.eset == nil && len(na.edges) > 0 {
		nb.eset = new(set.Sparse)
		for _, e := range nb.edges {
			nb.eset.Add(e)
		}
	}
	for _, e := range na.edges {
		if e == b || e == a {
			continue
		}
		if nb.eset.Add(e) {
			nb.edges = append(nb.edges, e)
		}
	}
	na.edges = nil
	na.eset = nil

	// Base elements.
	nb.base = mergeSorted(nb.base, na.base)
	na.base = nil

	// Pending loads and relevance.
	nb.unloaded = append(nb.unloaded, na.unloaded...)
	na.unloaded = nil
	if na.relevant || nb.relevant {
		nb.relevant = true
		s.queueLoads(nb)
		if s.warm != nil {
			s.relevantPreds(b)
		}
	}

	// Invalidate caches.
	na.cache, nb.cache = nil, nil
	na.cachePass, nb.cachePass = 0, 0

	// Deref nodes must unify too so *x and *y stay equivalent.
	da, db := na.deref, nb.deref
	na.deref = -1
	switch {
	case da >= 0 && db >= 0:
		s.unify(da, db)
	case da >= 0:
		nb.deref = da
	}
	return b
}

// mergeSorted unions two sorted SymID slices into a fresh sorted slice.
func mergeSorted(a, b []prim.SymID) []prim.SymID {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]prim.SymID(nil), b...)
	}
	out := make([]prim.SymID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
