package core

import "cla/internal/pts/set"

// This file implements getLvals — the graph reachability computation at the
// heart of the pre-transitive algorithm — in two variants:
//
//   - reachTarjan: an iterative Tarjan SCC traversal that computes lval
//     sets bottom-up and unifies every cycle it encounters (cycle
//     elimination is free during traversal, and complete on the traversed
//     subgraph, as Section 5 argues).
//   - reachPlain: a naive reachability walk used when cycle elimination is
//     disabled (the ablation configuration).
//
// With caching enabled, computed sets are stored on nodes tagged with the
// current pass; the outer fixpoint's nochange flag repairs staleness.
//
// Sets are accumulated in the solver's Builder (reused merge scratch) and
// sealed into the per-pass arena through the hash-consing table, so
// structurally identical sets are stored once and the whole generation is
// reclaimed with two pointer rewinds at the pass boundary.

// getLvals returns the set of lvals reachable from node n (Figure 5) as a
// sealed set valid until the end of the current pass.
func (s *Solver) getLvals(n int32) *set.Set {
	n = s.find(n)
	if s.cfg.Cache && s.nodes[n].cachePass == s.pass {
		s.m.CacheHits++
		return s.nodes[n].cache
	}
	s.m.CacheMisses++
	if s.cfg.CycleElim {
		return s.reachTarjan(n)
	}
	return s.reachPlain(n)
}

// getLvalsNodes returns the de-skipped nodes holding the lvals of n — the
// getLvalsNodes() refinement from Section 5 used by the complex-assignment
// rules. The returned slice is scratch owned by the solver and is only
// valid until the next call.
func (s *Solver) getLvalsNodes(n int32) []int32 {
	s.gnSyms = s.getLvals(n).AppendSyms(s.gnSyms[:0])
	s.ensureScratch()
	s.nEpoch++
	out := s.gnBuf[:0]
	for _, lv := range s.gnSyms {
		r := s.find(int32(lv))
		if s.nSeen[r] != s.nEpoch {
			s.nSeen[r] = s.nEpoch
			out = append(out, r)
		}
	}
	s.gnBuf = out
	return out
}

// flushShared rewinds the per-pass set storage: the interning table
// forgets its entries (keeping buckets) and the arena rewinds to its
// first slab (keeping slabs). Every set sealed in the previous pass
// becomes invalid; all reads are guarded by cachePass/epoch tags that
// the pass increment has already aged out.
func (s *Solver) flushShared() {
	s.table.Reset()
	s.arena.Reset()
}

// ensureScratch sizes the traversal arrays for the current node count.
// Every array follows the same policy: grow to twice the node count
// whenever the tVisit sentinel array is behind, preserving contents.
func (s *Solver) ensureScratch() {
	n := len(s.nodes)
	if len(s.tVisit) >= n {
		return
	}
	grow := make([]int32, n*2)
	copy(grow, s.tVisit)
	s.tVisit = grow
	g2 := make([]int32, n*2)
	copy(g2, s.tIndex)
	s.tIndex = g2
	g3 := make([]int32, n*2)
	copy(g3, s.tLow)
	s.tLow = g3
	g4 := make([]bool, n*2)
	copy(g4, s.tOnStack)
	s.tOnStack = g4
	g5 := make([]*set.Set, n*2)
	copy(g5, s.tVal)
	s.tVal = g5
	g6 := make([]bool, n*2)
	copy(g6, s.tDone)
	s.tDone = g6
	g7 := make([]int32, n*2)
	copy(g7, s.nSeen)
	s.nSeen = g7
}

type tframe struct {
	v  int32
	ei int
}

// reachTarjan computes lvals(root) by a bottom-up SCC traversal, unifying
// cycles as they are found. Every node completed during the traversal gets
// its final set for this pass (cached when caching is on), so subsequent
// getLvals calls in the same pass are O(1) for the whole visited region.
func (s *Solver) reachTarjan(root int32) *set.Set {
	s.ensureScratch()
	s.tEpoch++
	epoch := s.tEpoch

	var frames []tframe
	var sccStack []int32
	order := int32(1)

	// completedVal returns the final set for a node finished either in
	// this traversal or in an earlier traversal of the same pass (cache).
	completedVal := func(w int32) (*set.Set, bool) {
		if s.tVisit[w] == epoch && s.tDone[w] {
			return s.tVal[w], true
		}
		if s.cfg.Cache && s.nodes[w].cachePass == s.pass {
			return s.nodes[w].cache, true
		}
		return nil, false
	}

	push := func(v int32) {
		s.tVisit[v] = epoch
		s.tDone[v] = false
		s.tIndex[v] = order
		s.tLow[v] = order
		order++
		s.tOnStack[v] = true
		sccStack = append(sccStack, v)
		frames = append(frames, tframe{v: v})
	}

	root = s.find(root)
	if val, ok := completedVal(root); ok {
		return val
	}
	push(root)

	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		v := f.v
		advanced := false
		for f.ei < len(s.nodes[v].edges) {
			w := s.find(s.nodes[v].edges[f.ei])
			f.ei++
			if w == v {
				continue
			}
			if s.tVisit[w] != epoch {
				if _, ok := completedVal(w); ok {
					// Cached from an earlier traversal this pass: leaf.
					s.tVisit[w] = epoch
					s.tDone[w] = true
					s.tVal[w] = s.nodes[w].cache
					s.tOnStack[w] = false
					continue
				}
				push(w)
				advanced = true
				break
			}
			if s.tOnStack[w] && s.tIndex[w] < s.tLow[v] {
				s.tLow[v] = s.tIndex[w]
			}
		}
		if advanced {
			continue
		}
		frames = frames[:len(frames)-1]
		if len(frames) > 0 {
			p := frames[len(frames)-1].v
			if s.tLow[v] < s.tLow[p] {
				s.tLow[p] = s.tLow[v]
			}
		}
		if s.tLow[v] != s.tIndex[v] {
			continue
		}
		// v is an SCC root: pop members.
		var members []int32
		for {
			m := sccStack[len(sccStack)-1]
			sccStack = sccStack[:len(sccStack)-1]
			s.tOnStack[m] = false
			members = append(members, m)
			if m == v {
				break
			}
		}
		// Union base elements and external children's final sets into
		// the builder. SCC membership is tagged through the epoch
		// scratch (cheaper than a per-SCC map).
		b := &s.bld
		b.Reset()
		s.nEpoch++
		for _, m := range members {
			b.MergeSyms(s.nodes[m].base)
			s.nSeen[m] = s.nEpoch
		}
		for _, m := range members {
			for _, e := range s.nodes[m].edges {
				w := s.find(e)
				if s.nSeen[w] == s.nEpoch {
					continue
				}
				if val, ok := completedVal(w); ok {
					b.MergeSet(val)
				}
			}
		}
		acc := b.Seal(s.arena, s.table)

		rep := v
		if s.cfg.CycleElim && len(members) > 1 {
			for _, m := range members[:len(members)-1] {
				rep = s.unify(rep, m)
			}
			rep = s.find(rep)
		}
		for _, m := range members {
			if s.find(m) != rep && !s.cfg.CycleElim {
				// Without unification each member keeps its own value.
				s.tVisit[m] = epoch
				s.tDone[m] = true
				s.tVal[m] = acc
			}
		}
		s.tVisit[rep] = epoch
		s.tDone[rep] = true
		s.tVal[rep] = acc
		if s.cfg.Cache {
			s.nodes[rep].cache = acc
			s.nodes[rep].cachePass = s.pass
		}
	}

	r := s.find(root)
	if s.tVisit[r] == epoch && s.tDone[r] {
		return s.tVal[r]
	}
	return nil
}

// reachPlain computes lvals(root) by naive reachability: the union of base
// elements over every node reachable from root. Used when cycle
// elimination is off; with caching on, only the queried root's result is
// stored (intermediate values are unsafe to cache in the presence of
// cycles without SCC information).
func (s *Solver) reachPlain(root int32) *set.Set {
	s.ensureScratch()
	s.tEpoch++
	epoch := s.tEpoch
	root = s.find(root)

	stack := []int32{root}
	s.tVisit[root] = epoch
	b := &s.bld
	b.Reset()
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.cfg.Cache && s.nodes[v].cachePass == s.pass && v != root {
			b.MergeSet(s.nodes[v].cache)
			continue
		}
		b.MergeSyms(s.nodes[v].base)
		for _, e := range s.nodes[v].edges {
			w := s.find(e)
			if s.tVisit[w] != epoch {
				s.tVisit[w] = epoch
				stack = append(stack, w)
			}
		}
	}
	acc := b.Seal(s.arena, s.table)
	if s.cfg.Cache {
		s.nodes[root].cache = acc
		s.nodes[root].cachePass = s.pass
	}
	return acc
}
