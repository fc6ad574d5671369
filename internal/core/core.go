// Package core implements the paper's pre-transitive graph algorithm for
// Andersen's points-to analysis (Section 5).
//
// The constraint graph is maintained in non-transitively-closed form: an
// edge n(x) → n(y) records the subset constraint x ⊇ y introduced by a
// simple assignment x = y, and base elements record x = &y directly on
// n(x). Points-to sets are never propagated along edges; instead, when the
// set of lvals of a variable is needed, a graph reachability computation
// (getLvals) walks the out-edges and unions the base elements of every
// reachable node.
//
// Two optimizations make this practical, exactly as in the paper:
//
//   - Caching: reachability results are cached per pass of the outer
//     fixpoint; stale results are repaired because the nochange flag forces
//     another pass whenever anything was learned.
//   - Cycle elimination: cycles discovered during reachability are
//     collapsed by unifying their nodes through skip pointers. Detection is
//     free during traversal, and all cycles in the traversed region are
//     found — the costly ones, as the paper observes.
//
// The solver also implements the CLA demand-loading discipline: the block
// of assignments whose source is x is loaded only when n(x) becomes
// relevant (can contribute lvals), and simple/base assignments are
// discarded once converted to graph state while complex assignments stay
// in core.
package core

import (
	"context"
	"fmt"

	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/pts/set"
)

// Config controls the solver's optimizations; the zero value disables
// everything (useful only for ablation), so use DefaultConfig.
type Config struct {
	// Cache enables per-pass caching of reachability computations.
	Cache bool
	// CycleElim enables unification of cycle members during reachability.
	CycleElim bool
	// DemandLoad loads per-object assignment blocks only when the object
	// becomes relevant; when false the whole database is loaded upfront.
	DemandLoad bool
	// MaxPasses bounds the outer fixpoint (safety net; 0 = 1<<20).
	MaxPasses int
	// Jobs bounds the worker count for the solve phase, the
	// post-fixpoint snapshot build and batch result queries (<= 0 means
	// GOMAXPROCS). Jobs >= 2 selects the phase-parallel wave fixpoint
	// (see wave.go); Jobs <= 1 keeps the sequential reference fixpoint.
	// Both compute the same unique least fixpoint, so the points-to
	// relation is identical at any setting.
	Jobs int
}

// DefaultConfig enables caching, cycle elimination and demand loading.
func DefaultConfig() Config {
	return Config{Cache: true, CycleElim: true, DemandLoad: true}
}

// complexKind distinguishes the two retained assignment forms.
type complexKind uint8

const (
	ckStore complexKind = iota // *x = y
	ckLoad                     // x = *y
)

// complexAssign is one in-core complex assignment over graph nodes.
type complexAssign struct {
	kind complexKind
	x, y int32
}

// Solver holds the pre-transitive graph state.
type Solver struct {
	src pts.Source
	cfg Config

	nodes   []node
	numSyms int32

	complex []complexAssign

	// loadQueue holds symbols whose blocks await demand loading.
	loadQueue []int32
	loadedBlk []bool // per symbol

	// funcptr linking state.
	recs      []prim.FuncRecord
	recOfFunc map[int32]int // function symbol node → record index
	ptrRecs   []int         // record indexes of function-pointer symbols

	pass    int32
	changed bool

	// traversal scratch (see reach.go).
	tEpoch   int32
	tVisit   []int32
	tIndex   []int32
	tLow     []int32
	tOnStack []bool
	tDone    []bool
	tVal     []*set.Set
	nEpoch   int32
	nSeen    []int32
	gnBuf    []int32
	gnSyms   []prim.SymID
	lvBuf    []prim.SymID

	// Per-pass set machinery: reachability results are sealed into the
	// arena and hash-consed through the table, both rewound at each pass
	// boundary so set storage tracks the high-water mark of one pass
	// instead of the churn of all of them.
	arena *set.Arena
	table *set.Table
	bld   set.Builder

	// snap is the frozen read-only query structure built after the
	// fixpoint converges; all Result queries go through it (see
	// snapshot.go) and may run concurrently.
	snap *snapshot

	m pts.Metrics
}

type node struct {
	skip  int32 // ≥0: unified into that node
	edges []int32
	eset  *set.Sparse
	base  []prim.SymID // sorted base elements (lvals)
	deref int32        // node id of n(*x), or -1

	relevant bool
	// unloaded lists member symbols whose blocks are not yet loaded
	// (demand mode); loading happens when the node becomes relevant.
	unloaded []int32

	cachePass int32
	cache     *set.Set
}

// Solve runs the analysis over src.
func Solve(src pts.Source, cfg Config) (*Result, error) {
	return SolveCtx(context.Background(), src, cfg)
}

// SolveCtx is Solve under a context: the outer fixpoint checks for
// cancellation once per pass and every few hundred complex assignments
// within a pass, so a long solve aborts promptly with ctx.Err(). The
// background context costs one nil check per boundary.
func SolveCtx(ctx context.Context, src pts.Source, cfg Config) (*Result, error) {
	if cfg.MaxPasses == 0 {
		cfg.MaxPasses = 1 << 20
	}
	s := &Solver{
		src:       src,
		cfg:       cfg,
		numSyms:   int32(src.NumSyms()),
		recOfFunc: map[int32]int{},
		arena:     set.NewArena(),
		table:     set.NewTable(),
	}
	s.nodes = make([]node, s.numSyms)
	for i := range s.nodes {
		s.nodes[i].skip = -1
		s.nodes[i].deref = -1
	}
	s.loadedBlk = make([]bool, s.numSyms)
	for i := int32(0); i < s.numSyms; i++ {
		if src.BlockLen(prim.SymID(i)) > 0 {
			s.nodes[i].unloaded = append(s.nodes[i].unloaded, i)
		}
	}

	// Function records.
	s.recs = src.Funcs()
	for ri := range s.recs {
		fn := int32(s.recs[ri].Func)
		sym := src.Sym(s.recs[ri].Func)
		if sym.Kind == prim.SymFunc {
			s.recOfFunc[fn] = ri
		}
		if sym.FuncPtr {
			s.ptrRecs = append(s.ptrRecs, ri)
		}
	}

	// Static section: base elements, always loaded.
	statics, err := src.Statics()
	if err != nil {
		return nil, err
	}
	s.m.Loaded += len(statics)
	for _, a := range statics {
		s.addBase(int32(a.Dst), a.Src)
	}

	if !cfg.DemandLoad {
		for i := int32(0); i < s.numSyms; i++ {
			if err := s.loadBlock(i); err != nil {
				return nil, err
			}
		}
	}
	if err := s.drainLoads(); err != nil {
		return nil, err
	}

	// The iteration algorithm (Figure 5). With jobs >= 2 the passes run
	// as barrier-synchronized waves over the condensation DAG (see
	// wave.go); both paths reach the same unique least fixpoint, so the
	// points-to relation is byte-identical either way.
	if cfg.Jobs >= 2 {
		err = s.solveWaves(ctx)
	} else {
		err = s.solveSeq(ctx)
	}
	if err != nil {
		return nil, err
	}

	// Nothing mutates the graph after convergence: freeze it into the
	// read-only snapshot (skip chains resolved, all lval sets
	// materialized across cfg.Jobs workers) and drop the fixpoint
	// scratch. Every Result query from here on is a lock-free lookup.
	s.pass++
	if s.snap, err = s.buildSnapshot(); err != nil {
		return nil, err
	}
	s.releaseScratch()
	s.m.InCore = len(s.complex)
	s.m.InFile = pts.TotalAssigns(src)
	res := &Result{s: s}
	if err := res.fillMetrics(); err != nil {
		return nil, err
	}
	return res, nil
}

// solveSeq is the sequential reference fixpoint: one pass applies every
// in-core complex assignment against the mutable graph (reachability via
// getLvals, cycle unification, per-pass caching) until nothing changes.
func (s *Solver) solveSeq(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.pass++
		if int(s.pass) > s.cfg.MaxPasses {
			return fmt.Errorf("core: no convergence after %d passes", s.cfg.MaxPasses)
		}
		s.m.Passes++
		s.changed = false
		s.flushShared()

		for i := 0; i < len(s.complex); i++ {
			if i&0xff == 0xff {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			ca := s.complex[i]
			switch ca.kind {
			case ckStore: // *x = y: add an edge n(z) → n(y) for each &z in lvals(x)
				y := s.find(ca.y)
				for _, z := range s.getLvalsNodes(ca.x) {
					s.addEdge(z, y)
				}
			case ckLoad: // x = *y: edges n(x) → n(*y) and n(*y) → n(z)
				dy := s.derefNode(ca.y)
				s.addEdge(s.find(ca.x), dy)
				for _, z := range s.getLvalsNodes(ca.y) {
					s.addEdge(s.find(dy), z)
				}
			}
			if err := s.drainLoads(); err != nil {
				return err
			}
		}

		if err := s.funcPtrPass(); err != nil {
			return err
		}
		if err := s.drainLoads(); err != nil {
			return err
		}

		if !s.changed {
			return nil
		}
	}
}

// releaseScratch frees the traversal state the snapshot supersedes,
// including the per-pass arena (whose sets no guarded read can reach
// once the final pass counter has advanced).
func (s *Solver) releaseScratch() {
	s.tVisit, s.tIndex, s.tLow, s.tOnStack, s.tDone = nil, nil, nil, nil, nil
	s.tVal, s.nSeen, s.gnBuf = nil, nil, nil
	s.gnSyms, s.lvBuf = nil, nil
	s.arena, s.table = nil, nil
	s.bld = set.Builder{}
	for i := range s.nodes {
		s.nodes[i].cache = nil
		s.nodes[i].eset = nil
	}
}

// funcPtrPass links indirect calls: when a function g reaches the
// points-to set of a marked function pointer f, add g$i = f$i and
// f$ret = g$ret (Section 4).
func (s *Solver) funcPtrPass() error {
	for _, ri := range s.ptrRecs {
		r := &s.recs[ri]
		fpNode := s.find(int32(r.Func))
		s.lvBuf = s.getLvals(fpNode).AppendSyms(s.lvBuf[:0])
		for _, lv := range s.lvBuf {
			gi, ok := s.recOfFunc[int32(lv)]
			if !ok {
				continue
			}
			g := &s.recs[gi]
			n := len(r.Params)
			if len(g.Params) < n {
				n = len(g.Params)
			}
			for i := 0; i < n; i++ {
				s.addEdge(s.find(int32(g.Params[i])), s.find(int32(r.Params[i])))
			}
			if r.Ret != prim.NoSym && g.Ret != prim.NoSym {
				s.addEdge(s.find(int32(r.Ret)), s.find(int32(g.Ret)))
			}
		}
	}
	return nil
}

// Result exposes the solved points-to relation. All queries read the
// frozen snapshot, so a Result is safe for concurrent use by multiple
// goroutines.
type Result struct {
	s *Solver
}

// PointsTo returns the objects sym may point to, sorted. The returned
// slice is shared and must not be mutated.
func (r *Result) PointsTo(sym prim.SymID) []prim.SymID {
	if int32(sym) < 0 || int32(sym) >= r.s.numSyms {
		return nil
	}
	return r.s.snap.lvals(int32(sym))
}

// Metrics returns solver statistics.
func (r *Result) Metrics() pts.Metrics { return r.s.m }

// fillMetrics computes the Table 3 accounting (pointer variables with
// non-empty sets and total relations) by fanning the batch of per-symbol
// queries out across cfg.Jobs shards. Each worker accumulates privately;
// the totals are order-independent sums, so the result is identical to
// the sequential loop. An error is a shard's contained panic.
func (r *Result) fillMetrics() error {
	n := int(r.s.numSyms)
	w := parallel.Workers(r.s.cfg.Jobs)
	vars := make([]int, w)
	rels := make([]int, w)
	err := parallel.Shard(r.s.cfg.Jobs, n, func(wk, lo, hi int) error {
		for i := lo; i < hi; i++ {
			id := prim.SymID(i)
			if !pts.CountedAsPointerVar(r.s.src.Sym(id).Kind) {
				continue
			}
			if c := len(r.PointsTo(id)); c > 0 {
				vars[wk]++
				rels[wk] += c
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := 0; i < w; i++ {
		r.s.m.PointerVars += vars[i]
		r.s.m.Relations += rels[i]
	}
	// With caching on, keep the batch-query accounting from the mutable
	// era: the first query of a component materializes its set (a miss);
	// every later query of the same component is answered by the shared
	// set (a hit). Computed in one deterministic pass so the totals are
	// identical at any worker count.
	if r.s.cfg.Cache {
		touched := make([]bool, len(r.s.snap.sets))
		var queries, distinct int64
		for i := 0; i < n; i++ {
			id := prim.SymID(i)
			if !pts.CountedAsPointerVar(r.s.src.Sym(id).Kind) || len(r.PointsTo(id)) == 0 {
				continue
			}
			queries++
			c := r.s.snap.comp[r.s.snap.rep[i]]
			if !touched[c] {
				touched[c] = true
				distinct++
			}
		}
		r.s.m.CacheHits += queries - distinct
		r.s.m.CacheMisses += distinct
	}
	return nil
}
