package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"cla/internal/prim"
	"cla/internal/pts"
)

// This file implements the read-only snapshot query mode. During the
// fixpoint, getLvals answers queries against mutable state: skip
// pointers compress, cycles unify, and the traversal scratch
// (tVisit/tVal/nSeen) is solver-global — none of which can be shared
// between goroutines. Once the outer fixpoint converges the graph is
// final, so Solve freezes it: the condensation (SCC DAG) is computed,
// every component's lval set is materialized bottom-up — components of
// equal height in the DAG fan out across cfg.Jobs workers, each with
// private scratch — and skip chains are resolved into a flat node →
// component table. The wave fixpoint does this in every wave, and its
// confirming wave is the snapshot; the sequential fixpoint runs the
// same steps once after it converges (freezeSeq). After the freeze, a
// points-to query is two array loads, safe from any number of
// goroutines.

// snapshot is the frozen form of the converged pre-transitive graph.
// Its sets hold node ids; a generation whose node i is symbol i (a
// scratch solve) answers with them directly, and a warm generation
// translates a component's set to its symbol ids on first read.
type snapshot struct {
	comp []int32        // node → component id, -1 for none (empty set)
	sets [][]prim.SymID // component id → final sorted set of node ids (shared)

	// symNode and nodeSym are the generation's symbol binding (see
	// Solver); nil when node i is symbol i.
	symNode, nodeSym []int32
	// trans memoizes each component's set in symbol ids, in chunks of
	// transChunk components allocated on the first translation in them.
	transOnce sync.Once
	trans     []atomic.Pointer[transChunk]
}

// transChunk is one chunk of a snapshot's translation memo.
type transChunk [256]atomic.Pointer[[]prim.SymID]

// lvals returns the materialized set (node ids) of any node, in O(1).
func (sn *snapshot) lvals(n int32) []prim.SymID {
	if c := sn.comp[n]; c >= 0 {
		return sn.sets[c]
	}
	return nil
}

// compOf returns the component of symbol sym's node, or -1.
func (sn *snapshot) compOf(sym int32) int32 {
	if sn.symNode != nil {
		sym = sn.symNode[sym]
	}
	return sn.comp[sym]
}

// pointsTo returns sym's points-to set in symbol ids. A warm
// generation translates each component once, on its first read, and
// every later read of any member shares the result; concurrent first
// reads may both translate, and keep whichever stores first.
func (sn *snapshot) pointsTo(sym int32) []prim.SymID {
	c := sn.compOf(sym)
	if c < 0 {
		return nil
	}
	set := sn.sets[c]
	if sn.nodeSym == nil || len(set) == 0 {
		return set
	}
	const size = len(transChunk{})
	sn.transOnce.Do(func() { sn.trans = make([]atomic.Pointer[transChunk], (len(sn.sets)+size-1)/size) })
	at := &sn.trans[int(c)/size]
	chunk := at.Load()
	if chunk == nil {
		at.CompareAndSwap(nil, new(transChunk))
		chunk = at.Load()
	}
	memo := &chunk[int(c)%size]
	if p := memo.Load(); p != nil {
		return *p
	}
	out := make([]prim.SymID, len(set))
	for k, n := range set {
		out[k] = prim.SymID(sn.nodeSym[n])
	}
	if !slices.IsSorted(out) {
		slices.Sort(out)
	}
	if !memo.CompareAndSwap(nil, &out) {
		return *memo.Load()
	}
	return out
}

// count adds the Table 3 accounting over src's symbols to m: pointer
// variables with non-empty sets, total relations and the assignments in
// the database. Set sizes need no translation. With caching on, it
// keeps the batch-query accounting from the mutable era: the first
// query of a component materializes its set (a miss); every later query
// of the same component is answered by the shared set (a hit).
func (sn *snapshot) count(m *pts.Metrics, src pts.Source, cache bool) {
	m.InFile = pts.TotalAssigns(src)
	var touched []bool
	if cache {
		touched = make([]bool, len(sn.sets))
	}
	for i := 0; i < src.NumSyms(); i++ {
		if !pts.CountedAsPointerVar(src.Sym(prim.SymID(i)).Kind) {
			continue
		}
		c := sn.compOf(int32(i))
		if c < 0 || len(sn.sets[c]) == 0 {
			continue
		}
		m.PointerVars++
		m.Relations += len(sn.sets[c])
		if cache {
			if touched[c] {
				m.CacheHits++
			} else {
				touched[c] = true
				m.CacheMisses++
			}
		}
	}
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

// freezeSeq freezes the sequential fixpoint's converged graph the way
// solveWaves freezes its confirming wave: condense the whole graph,
// materialize every component's set across cfg.Jobs workers, and
// freezeWave. Unlike a wave it never unifies: it leaves the graph's
// classes as they are, which makes it valid under every Config
// (including CycleElim off, where cycles survive the fixpoint). An
// error is ctx's or a level worker's contained panic.
func (s *Solver) freezeSeq(ctx context.Context) (*snapshot, error) {
	var wv wave
	adj := s.condense(&wv)
	// Accounting: a multi-member component is a cycle whose nodes the
	// final query pass would have unified; the snapshot collapses them
	// into one shared set, so credit the merges under the same flag.
	if s.cfg.CycleElim {
		for _, ms := range wv.members {
			s.m.Unifications += len(ms) - 1
		}
	}
	if _, err := s.materialize(ctx, &wv, adj, newWaveWorkers(s.cfg.Jobs)); err != nil {
		return nil, err
	}
	return freezeWave(wv.rep, wv.comp, wv.sets), nil
}
