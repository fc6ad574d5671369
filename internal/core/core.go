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
	"sync"
	"sync/atomic"

	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/pts/set"
)

// Config controls the solver's optimizations; the zero value disables
// everything (useful only for ablation), so use DefaultConfig.
type Config struct {
	// Cache enables per-pass caching of reachability computations.
	// Only the sequential fixpoint computes reachability; under waves
	// Cache changes nothing but the CacheHits/CacheMisses accounting.
	Cache bool
	// CycleElim enables unification of cycle members during reachability.
	CycleElim bool
	// DemandLoad loads per-object assignment blocks only when the object
	// becomes relevant; when false the whole database is loaded upfront.
	DemandLoad bool
	// MaxPasses bounds the outer fixpoint (safety net; 0 = 1<<20).
	MaxPasses int
	// Jobs bounds the worker count for the waves, the materialization
	// of the solved sets and batch result queries (<= 0 means
	// GOMAXPROCS workers for the last two). Jobs >= 2 selects the
	// phase-parallel wave fixpoint (see wave.go); Jobs <= 1, 0
	// included, keeps the sequential reference fixpoint for a scratch
	// solve, while a warm one (SolveFrom) always runs waves. Both
	// compute the same unique least fixpoint, so the points-to relation
	// is identical at any setting.
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

// Solver holds the pre-transitive graph state. A scratch solve builds
// one; a warm solve (SolveFrom) takes over the previous generation's and
// edits it in place, so node ids are stable across generations: node i
// is symbol i of the program a scratch solve started from, and later
// generations bind their symbols to nodes through symNode and nodeSym.
// Base elements, edges, complex assignments and function records all
// hold node ids.
type Solver struct {
	src pts.Source
	cfg Config

	nodes   []node
	numSyms int32
	// symNode maps the current program's symbol ids to nodes and
	// nodeSym maps nodes back (-1 for auxiliary and dead nodes). Both
	// are nil while node i is symbol i, as after a scratch solve; a warm
	// solve builds fresh ones, which its snapshot shares read-only.
	symNode, nodeSym []int32

	complex []complexAssign
	// fresh is the number of leading complex assignments some wave has
	// fired; the rest are new since.
	fresh int

	// loadQueue holds symbol nodes whose blocks await demand loading.
	loadQueue []int32

	// funcptr linking state, in node ids.
	recs      []prim.FuncRecord
	recOfFunc map[int32]int // function node → record index
	ptrRecs   []int         // record indexes of function-pointer symbols
	// recsChanged makes the next region wave fire every funcptr record:
	// an edit added a record or a function-pointer mark.
	recsChanged bool

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
	// fixpoint converges (see snapshot.go).
	snap *snapshot

	// warm is the region-wave state (see region.go), nil until the
	// first SolveFrom: a scratch solve retains none of it.
	warm *warmState

	m pts.Metrics
}

type node struct {
	skip  int32 // ≥0: unified into that node
	edges []int32
	eset  *set.Sparse
	base  []prim.SymID // sorted base elements (node ids of the objects)
	deref int32        // node id of n(*x), or -1

	relevant bool
	// loaded reports that the block of this node's symbol was read.
	loaded bool
	// dead marks a class an edit removed (set on its representative).
	dead bool
	// dirty marks a node queued on warmState.dirty since the last wave.
	dirty bool
	// operand marks a node some complex assignment names.
	operand bool
	// unloaded lists member nodes whose blocks are not yet loaded
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
	s := newSolver(src, cfg)
	for i := int32(0); i < s.numSyms; i++ {
		if src.BlockLen(prim.SymID(i)) > 0 {
			s.nodes[i].unloaded = append(s.nodes[i].unloaded, i)
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
	return s.run(ctx)
}

// newSolver allocates one singleton node per symbol and indexes the
// function records; no assignment is loaded yet.
func newSolver(src pts.Source, cfg Config) *Solver {
	s := &Solver{
		src:     src,
		numSyms: int32(src.NumSyms()),
		arena:   set.NewArena(),
		table:   set.NewTable(),
	}
	s.setConfig(cfg)
	s.nodes = make([]node, s.numSyms)
	for i := range s.nodes {
		s.nodes[i].skip = -1
		s.nodes[i].deref = -1
	}
	s.bindFuncs()
	return s
}

// setConfig installs cfg, defaulting MaxPasses.
func (s *Solver) setConfig(cfg Config) {
	if cfg.MaxPasses == 0 {
		cfg.MaxPasses = 1 << 20
	}
	s.cfg = cfg
}

// node returns the node of the current program's symbol sym.
func (s *Solver) node(sym int32) int32 {
	if s.symNode == nil {
		return sym
	}
	return s.symNode[sym]
}

// symOf returns the current program's symbol bound to node n, or -1.
func (s *Solver) symOf(n int32) int32 {
	if s.nodeSym == nil {
		if n < s.numSyms {
			return n
		}
		return -1
	}
	if int(n) < len(s.nodeSym) {
		return s.nodeSym[n]
	}
	return -1
}

// bindFuncs indexes the current program's function records in node ids.
// It reports whether the records grew: a new record or a new
// function-pointer mark (an edit never drops one; see SolveFrom).
func (s *Solver) bindFuncs() bool {
	recs := s.src.Funcs()
	if s.symNode != nil {
		mapped := make([]prim.FuncRecord, len(recs))
		params := 0
		for _, r := range recs {
			params += len(r.Params)
		}
		flat := make([]prim.SymID, 0, params)
		for i, r := range recs {
			m := r
			m.Func = prim.SymID(s.node(int32(r.Func)))
			lo := len(flat)
			for _, p := range r.Params {
				flat = append(flat, prim.SymID(s.node(int32(p))))
			}
			m.Params = flat[lo:len(flat):len(flat)]
			if r.Ret != prim.NoSym {
				m.Ret = prim.SymID(s.node(int32(r.Ret)))
			}
			mapped[i] = m
		}
		recs = mapped
	}
	oldRecs, oldPtrs := len(s.recs), len(s.ptrRecs)
	s.recs = recs
	s.recOfFunc = make(map[int32]int, len(recs))
	s.ptrRecs = s.ptrRecs[:0]
	for ri, r := range recs {
		sym := s.src.Sym(prim.SymID(s.symOf(int32(r.Func))))
		if sym.Kind == prim.SymFunc {
			s.recOfFunc[int32(r.Func)] = ri
		}
		if sym.FuncPtr {
			s.ptrRecs = append(s.ptrRecs, ri)
		}
	}
	return len(recs) != oldRecs || len(s.ptrRecs) != oldPtrs
}

// run iterates the loaded graph to the least fixpoint and freezes it.
func (s *Solver) run(ctx context.Context) (*Result, error) {
	if err := s.drainLoads(); err != nil {
		return nil, err
	}

	// The iteration algorithm (Figure 5). With jobs >= 2, and on every
	// warm solve, the passes run as barrier-synchronized waves over the
	// condensation DAG (see wave.go); both paths reach the same unique
	// least fixpoint, so the points-to relation is byte-identical
	// either way. Each freezes the converged graph into the read-only
	// snapshot (skip chains resolved, all lval sets materialized across
	// cfg.Jobs workers), so every Result query from here on is a
	// lock-free lookup.
	var err error
	if s.cfg.Jobs >= 2 || s.warm != nil {
		err = s.solveWaves(ctx)
	} else {
		err = s.solveSeq(ctx)
	}
	if err != nil {
		return nil, err
	}

	// Nothing mutates the graph until the next SolveFrom: drop the
	// fixpoint scratch.
	s.pass++
	s.releaseScratch()
	s.m.InCore = len(s.complex)
	res := &Result{snap: s.snap, m: s.m, numSyms: s.numSyms, src: s.src, cache: s.cfg.Cache}
	if s.warm != nil {
		res.regionNodes = s.warm.regionNodes
	}
	res.solver.Store(s)
	return res, nil
}

// solveSeq is the sequential reference fixpoint: one pass applies every
// in-core complex assignment against the mutable graph (reachability via
// getLvals, cycle unification, per-pass caching) until nothing changes.
// It then freezes the converged graph (freezeSeq).
func (s *Solver) solveSeq(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.pass++
		if s.m.Passes++; s.m.Passes > s.cfg.MaxPasses {
			return fmt.Errorf("core: no convergence after %d passes", s.cfg.MaxPasses)
		}
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
			s.fresh = len(s.complex)
			snap, err := s.freezeSeq(ctx)
			s.snap = snap
			return err
		}
	}
}

// releaseScratch frees the traversal state the snapshot supersedes,
// including the per-pass arena (whose sets no guarded read can reach
// once the final pass counter has advanced). Edge dedupe sets go too,
// except under a warm solve, which keeps those of the nodes it touched.
func (s *Solver) releaseScratch() {
	s.tVisit, s.tIndex, s.tLow, s.tOnStack, s.tDone = nil, nil, nil, nil, nil
	s.tVal, s.nSeen, s.gnBuf = nil, nil, nil
	s.gnSyms, s.lvBuf = nil, nil
	s.arena, s.table = nil, nil
	s.bld = set.Builder{}
	if s.warm != nil {
		return
	}
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
// goroutines. A Result holds the solver that produced it until a
// SolveFrom takes it over; from then on it retains only its snapshot
// and metrics.
type Result struct {
	snap    *snapshot
	numSyms int32
	// m holds the solve's metrics; the first Metrics call adds the
	// counts over src's symbols and assignments (count), once.
	m       pts.Metrics
	counted sync.Once
	src     pts.Source
	cache   bool
	// regionNodes is the warm solve's region size (RegionNodes).
	regionNodes int
	// solver is handed to at most one successor (SolveFrom).
	solver atomic.Pointer[Solver]
}

// PointsTo returns the objects sym may point to, sorted. The returned
// slice is shared and must not be mutated.
func (r *Result) PointsTo(sym prim.SymID) []prim.SymID {
	if int32(sym) < 0 || int32(sym) >= r.numSyms {
		return nil
	}
	return r.snap.pointsTo(int32(sym))
}

// Metrics returns solver statistics. The Table 3 counts that read every
// symbol and assignment (PointerVars, Relations, InFile and the
// snapshot's cache accounting) are computed from the snapshot on the
// first call, not by the solve, so a generation whose metrics nobody
// reads never pays for them. Concurrent calls are safe.
func (r *Result) Metrics() pts.Metrics {
	r.counted.Do(func() {
		r.snap.count(&r.m, r.src, r.cache)
		r.src = nil
	})
	return r.m
}

// RegionNodes returns how many nodes the waves of the warm solve that
// produced r recomputed, summed over its waves (0 for a scratch solve).
func (r *Result) RegionNodes() int { return r.regionNodes }
