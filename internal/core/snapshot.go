package core

import (
	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts/set"
	"cla/internal/scc"
)

// This file implements the read-only snapshot query mode. During the
// fixpoint, getLvals answers queries against mutable state: skip
// pointers compress, cycles unify, and the traversal scratch
// (tVisit/tVal/nSeen) is solver-global — none of which can be shared
// between goroutines. Once the outer fixpoint converges the graph is
// final, so Solve freezes it: skip chains are resolved into a flat
// representative table, the condensation (SCC DAG) is computed once, and
// every component's lval set is materialized bottom-up — components of
// equal height in the DAG fan out across cfg.Jobs workers, each with
// private scratch. After the freeze, a points-to query is two array
// loads, safe from any number of goroutines.

// snapshot is the frozen form of the converged pre-transitive graph.
type snapshot struct {
	rep  []int32        // node → representative (skip chains resolved)
	comp []int32        // representative → component id (reverse topo order)
	sets [][]prim.SymID // component id → final sorted lval set (shared)
}

// lvals returns the materialized set for any node, in O(1).
func (sn *snapshot) lvals(n int32) []prim.SymID {
	return sn.sets[sn.comp[sn.rep[n]]]
}

// condensedAdj builds the condensed adjacency per representative:
// out-edges mapped through rep, deduped, self-loops dropped — the input
// contract of scc.Condense.
func (s *Solver) condensedAdj(rep []int32) [][]int32 {
	n := len(s.nodes)
	adj := make([][]int32, n)
	seen := make([]int32, n)
	epoch := int32(0)
	for i := 0; i < n; i++ {
		v := int32(i)
		if rep[i] != v || len(s.nodes[i].edges) == 0 {
			continue
		}
		epoch++
		out := make([]int32, 0, len(s.nodes[i].edges))
		for _, e := range s.nodes[i].edges {
			w := rep[e]
			if w == v || seen[w] == epoch {
				continue
			}
			seen[w] = epoch
			out = append(out, w)
		}
		adj[i] = out
	}
	return adj
}

// buildSnapshot freezes the solver's graph. Called once, after the
// fixpoint, while the solver is still single-threaded. An error is a
// level worker's contained panic; the snapshot is then incomplete and
// must not be used.
func (s *Solver) buildSnapshot() (*snapshot, error) {
	n := len(s.nodes)
	sn := &snapshot{rep: make([]int32, n)}
	for i := 0; i < n; i++ {
		sn.rep[i] = s.find(int32(i))
	}
	adj := s.condensedAdj(sn.rep)

	// Iterative Tarjan over the representatives (shared with the wave
	// solvers; see internal/scc). Unlike reachTarjan it never unifies:
	// the snapshot leaves solver state untouched, which is what makes it
	// valid under every Config (including CycleElim off, where cycles
	// survive the fixpoint).
	var members [][]int32
	sn.comp, members = scc.Condense(adj, func(v int32) bool { return sn.rep[v] == v })
	succs, _, buckets := scc.Level(sn.comp, members, adj)
	nc := len(members)

	// Materialize lval sets bottom-up: a component's set is the union of
	// its members' base elements and its successors' sets, all of which
	// live at strictly lower heights. Components within one height level
	// are independent, so each level fans out across cfg.Jobs workers;
	// the union of sorted sets is order-independent, making the result
	// identical at any worker count. Between levels, equal sets are
	// shared through the interning table (the paper's observation that
	// many lval sets are identical), kept single-threaded so it needs no
	// locking.
	sn.sets = make([][]prim.SymID, nc)
	interned := map[uint64][][]prim.SymID{}
	builders := make([]set.Builder, parallel.Workers(s.cfg.Jobs))
	err := parallel.Levels(s.cfg.Jobs, len(buckets),
		func(l int) int { return len(buckets[l]) },
		func(l, wk, lo, hi int) error {
			b := &builders[wk]
			for bi := lo; bi < hi; bi++ {
				c := buckets[l][bi]
				b.Reset()
				for _, m := range members[c] {
					b.MergeSyms(s.nodes[m].base)
				}
				for _, sc := range succs[c] {
					b.MergeSyms(sn.sets[sc])
				}
				sn.sets[c] = b.Syms()
			}
			return nil
		},
		func(l int) error {
			for _, c := range buckets[l] {
				sn.sets[c] = internInto(interned, sn.sets[c])
			}
			return nil
		})
	if err != nil {
		return nil, err
	}

	// Accounting: a multi-member component is a cycle whose nodes the
	// final query pass would have unified; the snapshot collapses them
	// into one shared set, so credit the merges under the same flag.
	if s.cfg.CycleElim {
		for c := 0; c < nc; c++ {
			s.m.Unifications += len(members[c]) - 1
		}
	}
	return sn, nil
}
