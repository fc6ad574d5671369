// Phase-parallel wave fixpoint for the pre-transitive solver. Each pass
// of the Figure 5 iteration becomes one wave: the wave's region of the
// constraint graph is SCC-condensed (condense, via internal/scc) and its
// cycles unified, every region component's lval set is materialized
// bottom-up with components of equal height fanned out across the
// worker pool (materialize; the sequential fixpoint's freeze runs the
// same two steps once), and the in-core complex assignments plus
// funcptr links whose operand lies in the region are then evaluated in
// parallel against those frozen sets — each worker emitting deferred
// edge insertions into a private buffer instead of touching the graph. The buffers are merged sequentially in
// deterministic order (workers own contiguous assignment shards, so
// worker-slot order is assignment order) and the next wave begins if
// anything changed.
//
// In a scratch solve every node is dirty, so the region is the whole
// graph and every rule fires in every wave. A warm solve (region.go)
// restricts each wave to the nodes that can reach a change. Either way
// the wave that changes nothing, and whose cycle unification did not
// cascade, confirms the fixpoint, and its sets become the snapshot.
//
// The solver-global epoch scratch of reach.go never runs here: workers
// carry private builders, arenas and interning tables, and the mutable
// graph operations (unify, addEdge, demand loads) stay sequential at
// wave boundaries. Andersen's analysis has a unique least fixpoint, so
// the converged graph — and therefore the snapshot and every points-to
// set — is byte-identical to the sequential reference at any -j.
package core

import (
	"context"
	"fmt"
	"slices"

	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts/set"
	"cla/internal/scc"
)

// wavePairsCheck is how many deferred-pair emissions or applications may
// pass between cancellation checks.
const wavePairsCheck = 256

// coreWaveWorker is one worker's private solve scratch: set machinery
// for materialization and node-dedup scratch plus the deferred-edge
// buffer for rule evaluation.
type coreWaveWorker struct {
	bld   set.Builder
	arena *set.Arena
	table *set.Table

	seen  []int32
	epoch int32
	syms  []prim.SymID
	nbuf  []int32

	pairs []int64
	apps  int
}

func newWaveWorkers(jobs int) []coreWaveWorker {
	ws := make([]coreWaveWorker, parallel.Workers(jobs))
	for i := range ws {
		ws[i].arena = set.NewArena()
		ws[i].table = set.NewTable()
	}
	return ws
}

func packEdge(a, b int32) int64 { return int64(a)<<32 | int64(uint32(b)) }

func unpackEdge(p int64) (a, b int32) { return int32(p >> 32), int32(uint32(p)) }

// wave is one wave's condensation, or the whole converged graph's in
// the sequential fixpoint's freeze. In a scratch solve its ids are node
// ids and rep resolves every node; in a warm solve its ids index the
// region (reg) and rep is nil, so representatives are found by walking
// skip pointers, which reads the graph without compressing it.
type wave struct {
	reg     []int32
	rep     []int32
	comp    []int32
	members [][]int32
	sets    []*set.Set
}

// node returns the graph node of wave id v.
func (wv *wave) node(v int32) int32 {
	if wv.reg != nil {
		return wv.reg[v]
	}
	return v
}

// repOf returns x's representative without mutating the graph, so the
// parallel phases may call it.
func (s *Solver) repOf(wv *wave, x int32) int32 {
	if wv.rep != nil {
		return wv.rep[x]
	}
	for s.nodes[x].skip >= 0 {
		x = s.nodes[x].skip
	}
	return x
}

// lvals appends x's materialized lval set (node ids) to buf: a scratch
// wave reads its own sets, a region wave the component table, which
// holds the region's sets once the wave commits them.
func (s *Solver) lvals(wv *wave, x int32, buf []prim.SymID) []prim.SymID {
	r := s.repOf(wv, x)
	if s.warm == nil {
		return wv.sets[wv.comp[r]].AppendSyms(buf)
	}
	if c := s.warm.side[r].comp; c >= 0 {
		return append(buf, s.warm.ctab[c]...)
	}
	return buf
}

// lvalNodes resolves x's materialized lval set to deduped representative
// nodes — the parallel analogue of getLvalsNodes, reading only frozen
// per-pass state.
func (w *coreWaveWorker) lvalNodes(s *Solver, wv *wave, x int32) []int32 {
	w.syms = s.lvals(wv, x, w.syms[:0])
	w.epoch++
	out := w.nbuf[:0]
	for _, lv := range w.syms {
		rr := s.repOf(wv, int32(lv))
		if w.seen[rr] != w.epoch {
			w.seen[rr] = w.epoch
			out = append(out, rr)
		}
	}
	w.nbuf = out
	return out
}

// solveWaves runs the fixpoint as barrier-synchronized waves and
// freezes the confirming wave into the snapshot. Graph state entering
// each wave equals what a sequential pass would start from; only the
// order in which the pass discovers new edges differs, which the unique
// least fixpoint makes unobservable in the result.
func (s *Solver) solveWaves(ctx context.Context) error {
	jobs := s.cfg.Jobs
	var ws []coreWaveWorker
	if w := s.warm; w != nil {
		if len(w.ws) != parallel.Workers(jobs) {
			w.ws = newWaveWorkers(jobs)
		}
		ws = w.ws
	} else {
		ws = newWaveWorkers(jobs)
	}
	var wv wave
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.pass++
		if s.m.Passes++; s.m.Passes > s.cfg.MaxPasses {
			return fmt.Errorf("core: no convergence after %d passes", s.cfg.MaxPasses)
		}
		s.m.Waves++
		s.changed = false

		// Deref nodes are created up front, sequentially, so the parallel
		// rule phase only ever reads the node table.
		for _, ca := range s.complex[s.fresh:] {
			if ca.kind == ckLoad {
				s.derefNode(ca.y)
			}
		}

		// Condense the region: the whole live graph in a scratch solve,
		// the nodes that reach a change in a warm one.
		n := len(s.nodes)
		var adj [][]int32
		if s.warm == nil {
			adj = s.condense(&wv)
		} else {
			adj = s.region()
			wv.reg = s.warm.reg
			wv.comp, wv.members = scc.Condense(adj, func(int32) bool { return true })
		}
		s.m.SCCRounds++

		// Cycle elimination: every multi-member component is a cycle; the
		// sequential path unifies them lazily during reachability, the
		// wave path unifies them here, between waves, where the graph is
		// safely mutable. A component's unification can cascade through
		// deref nodes into another component; merged counts the merges
		// beyond one class per component, after which this wave's
		// condensation no longer describes the graph.
		merged := 0
		if s.cfg.CycleElim {
			unified := false
			before := s.m.Unifications
			for _, ms := range wv.members {
				if len(ms) <= 1 {
					continue
				}
				r := wv.node(ms[0])
				for _, m := range ms[1:] {
					r = s.unify(r, wv.node(m))
				}
				merged -= len(ms) - 1
				unified = true
			}
			merged += s.m.Unifications - before
			if unified && s.warm == nil {
				for i := 0; i < n; i++ {
					wv.rep[i] = s.find(int32(i))
				}
			}
			// Unification can queue demand loads (a relevant node absorbs
			// unloaded members). Loading grows the graph, invalidating
			// this wave's condensation — restart the pass. A region wave
			// restarts on a cascade too: the cascade may have merged
			// classes outside the region, which the region no longer
			// covers. A scratch wave goes on, its sets a subset of the
			// merged classes' (so every edge its rules add is sound), but
			// it cannot confirm the fixpoint: the next wave condenses the
			// merged graph again.
			if err := s.drainLoads(); err != nil {
				return err
			}
			if s.changed || s.warm != nil && merged != 0 {
				if s.warm != nil {
					s.redirty(wv.reg)
				}
				continue
			}
			s.changed = merged != 0
		}

		// Materialize every component's lval set. A region wave commits
		// its sets to the component table, where its rules read them.
		width, err := s.materialize(ctx, &wv, adj, ws)
		if err != nil {
			return err
		}
		s.m.WaveWidth = max(s.m.WaveWidth, width)
		if s.warm != nil {
			s.commit(&wv)
		}

		// Complex rules fire against the frozen sets; workers defer the
		// edge insertions. Shards are contiguous, so draining the buffers
		// in worker order preserves assignment order exactly. A region
		// wave fires the new rules and those whose operand's set it
		// recomputed; every other rule's consequences are in the graph.
		for i := range ws {
			if len(ws[i].seen) < n {
				ws[i].seen = make([]int32, 2*n)
				ws[i].epoch = 0
			}
		}
		fired := len(s.complex)
		fire := s.fireList(fired)
		count := fired
		if s.warm != nil {
			count = len(fire)
		}
		err = parallel.ShardCtx(ctx, jobs, count, func(wk, lo, hi int) error {
			w := &ws[wk]
			w.pairs = w.pairs[:0]
			for i := lo; i < hi; i++ {
				k := i
				if s.warm != nil {
					k = int(fire[i])
				}
				ca := s.complex[k]
				switch ca.kind {
				case ckStore: // *x = y: edge n(z) → n(y) for each &z in lvals(x)
					for _, z := range w.lvalNodes(s, &wv, ca.x) {
						w.pairs = append(w.pairs, packEdge(z, ca.y))
					}
				case ckLoad: // x = *y: edges n(x) → n(*y) and n(*y) → n(z)
					d := s.repOf(&wv, s.nodes[s.repOf(&wv, ca.y)].deref)
					w.pairs = append(w.pairs, packEdge(ca.x, d))
					for _, z := range w.lvalNodes(s, &wv, ca.y) {
						w.pairs = append(w.pairs, packEdge(d, z))
					}
				}
				if w.apps++; w.apps >= wavePairsCheck {
					w.apps = 0
					if err := ctx.Err(); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		s.fresh = fired
		if err := s.mergePairs(ctx, ws); err != nil {
			return err
		}

		// Funcptr linking against the same frozen sets.
		recs := s.ptrRecList()
		err = parallel.ShardCtx(ctx, jobs, len(recs), func(wk, lo, hi int) error {
			w := &ws[wk]
			w.pairs = w.pairs[:0]
			for i := lo; i < hi; i++ {
				r := &s.recs[recs[i]]
				w.syms = s.lvals(&wv, int32(r.Func), w.syms[:0])
				for _, lv := range w.syms {
					gi, ok := s.recOfFunc[int32(lv)]
					if !ok {
						continue
					}
					g := &s.recs[gi]
					np := len(r.Params)
					if len(g.Params) < np {
						np = len(g.Params)
					}
					for k := 0; k < np; k++ {
						w.pairs = append(w.pairs, packEdge(int32(g.Params[k]), int32(r.Params[k])))
					}
					if r.Ret != prim.NoSym && g.Ret != prim.NoSym {
						w.pairs = append(w.pairs, packEdge(int32(r.Ret), int32(g.Ret)))
					}
					if w.apps++; w.apps >= wavePairsCheck {
						w.apps = 0
						if err := ctx.Err(); err != nil {
							return err
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		s.recsChanged = false
		if err := s.mergePairs(ctx, ws); err != nil {
			return err
		}

		// A wave that changed nothing (a cascade counts as a change)
		// confirmed the fixpoint: its condensation is the converged
		// graph's, and its sets are the final ones. A scratch wave's
		// sets become the snapshot; a region wave has committed its sets
		// already, and freezeRegion reads them from the component table.
		if !s.changed {
			if s.warm == nil {
				s.snap = freezeWave(wv.rep, wv.comp, wv.sets)
			} else {
				s.snap = s.freezeRegion()
			}
			return nil
		}
	}
}

// condense condenses the whole live graph into wv: rep resolves every
// node to its representative, and comp and members are the SCCs of the
// representatives' condensed adjacency, which it returns.
func (s *Solver) condense(wv *wave) [][]int32 {
	wv.rep = wv.rep[:0]
	for i := range s.nodes {
		wv.rep = append(wv.rep, s.find(int32(i)))
	}
	adj := s.condensedAdj(wv.rep)
	wv.comp, wv.members = scc.Condense(adj, func(v int32) bool { return wv.rep[v] == v })
	return adj
}

// materialize computes every component's lval set bottom-up: a
// component's set is the union of its members' base elements and its
// successors' sets, all of which live at strictly lower heights, so the
// components of one height level fan out across the workers, each
// sealing into its own arena (rewound here, like the sequential path's
// per-pass flush). A region component also takes the frozen sets of the
// components outside the region it has edges into. The union of sorted
// sets is order-independent, so the sets are identical at any worker
// count. It returns the width of the widest level.
func (s *Solver) materialize(ctx context.Context, wv *wave, adj [][]int32, ws []coreWaveWorker) (int, error) {
	succs, _, buckets := scc.Level(wv.comp, wv.members, adj)
	nc := len(wv.members)
	if cap(wv.sets) >= nc {
		wv.sets = wv.sets[:nc]
		clear(wv.sets)
	} else {
		wv.sets = make([]*set.Set, nc)
	}
	for i := range ws {
		ws[i].arena.Reset()
		ws[i].table.Reset()
	}
	width := 0
	for _, b := range buckets {
		width = max(width, len(b))
	}
	err := parallel.LevelsCtx(ctx, s.cfg.Jobs, len(buckets),
		func(l int) int { return len(buckets[l]) },
		func(l, wk, lo, hi int) error {
			w := &ws[wk]
			for bi := lo; bi < hi; bi++ {
				c := buckets[l][bi]
				w.bld.Reset()
				for _, m := range wv.members[c] {
					w.bld.MergeSyms(s.nodes[wv.node(m)].base)
				}
				for _, sc := range succs[c] {
					w.bld.MergeSet(wv.sets[sc])
				}
				if wv.reg != nil {
					for _, m := range wv.members[c] {
						for _, g := range s.warm.ext[m] {
							w.bld.MergeSyms(s.warm.ctab[g])
						}
					}
				}
				wv.sets[c] = w.bld.Seal(w.arena, w.table)
			}
			return nil
		}, nil)
	return width, err
}

// freezeWave builds the snapshot from a converged graph's whole-graph
// condensation and materialized sets: comp is taken over and extended
// from representatives to every node.
func freezeWave(rep, comp []int32, compSets []*set.Set) *snapshot {
	for i, r := range rep {
		if int32(i) != r {
			comp[i] = comp[r]
		}
	}
	return &snapshot{comp: comp, sets: freezeSets(compSets)}
}

// freezeSets copies each distinct set out of the worker arenas once,
// into one backing array of exactly their total size. Each worker
// hash-conses its own sets, so an equal set from another worker is
// matched by hash and elements first and shares the first one's copy.
// Every set is capped at its length, so an append by a caller cannot
// reach the next.
func freezeSets(compSets []*set.Set) [][]prim.SymID {
	copies := make(map[*set.Set][]prim.SymID)
	byHash := make(map[uint64][]*set.Set)
	alias := make(map[*set.Set]*set.Set) // a set → the equal set copied for it
	var a, b []uint32
	total := 0
	for _, cs := range compSets {
		if _, ok := copies[cs]; ok || cs == nil {
			continue
		}
		copies[cs] = nil
		h := cs.Hash()
		for _, o := range byHash[h] {
			a, b = cs.AppendU32(a[:0]), o.AppendU32(b[:0])
			if slices.Equal(a, b) {
				alias[cs] = o
				break
			}
		}
		if alias[cs] == nil {
			byHash[h] = append(byHash[h], cs)
			total += cs.Len()
		}
	}
	sets := make([][]prim.SymID, len(compSets))
	flat := make([]prim.SymID, 0, total)
	for c, cs := range compSets {
		if cs == nil {
			continue
		}
		if o := alias[cs]; o != nil {
			cs = o
		}
		syms := copies[cs]
		if syms == nil {
			lo := len(flat)
			flat = cs.AppendSyms(flat)
			syms = flat[lo:len(flat):len(flat)]
			copies[cs] = syms
		}
		sets[c] = syms
	}
	return sets
}

// mergePairs applies the deferred edge insertions sequentially, in
// worker-slot order, with the usual addEdge side effects (relevance,
// demand loads, the changed flag), then drains any queued loads.
func (s *Solver) mergePairs(ctx context.Context, ws []coreWaveWorker) error {
	applied := 0
	for wi := range ws {
		for _, p := range ws[wi].pairs {
			a, b := unpackEdge(p)
			s.addEdge(a, b)
			if applied++; applied >= wavePairsCheck {
				applied = 0
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		s.m.DeltaMergeBytes += int64(8 * len(ws[wi].pairs))
		ws[wi].pairs = ws[wi].pairs[:0]
	}
	return s.drainLoads()
}
