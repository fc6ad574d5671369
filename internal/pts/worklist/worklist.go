// Package worklist implements the classic transitively-closed worklist
// algorithm for Andersen's points-to analysis, the baseline the paper's
// pre-transitive algorithm is compared against (the style of Fähndrich et
// al.'s base algorithm): points-to sets are propagated along inclusion
// edges until fixpoint, with complex assignments adding edges as sets
// grow.
//
// Propagation is differential: each node carries, besides its full
// points-to set, the delta accumulated since it was last popped off the
// worklist. Complex rules, function-pointer linking and edge propagation
// fire on the delta only — the elements every existing successor has
// already seen are never re-walked. A freshly inserted edge catches its
// target up with the source's full set at insertion time, which is what
// makes delta-only firing sound. Successor sets are adaptive sparse sets
// (inline → sorted array → windowed bitset) iterated in ascending order,
// so the worklist dynamics are deterministic rather than map-ordered.
package worklist

import (
	"context"
	"sort"

	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/pts/set"
)

// ctxCheckApps is how many complex-rule applications may run between
// cancellation checks. A check per pop batch alone would let a single pop
// with a huge delta starve cancellation; counting rule applications
// bounds the latency by work done, not by pops.
const ctxCheckApps = 256

// solver runs the baseline Andersen analysis over the full database (the
// algorithm is whole-program; demand loading does not apply).
type solver struct {
	src pts.Source
	n   int

	// pt[v] is the points-to set of node v, as a sorted slice.
	pt [][]prim.SymID
	// delta[v] are the elements added to pt[v] since v was last popped;
	// always a sorted subset of pt[v].
	delta [][]prim.SymID
	// succ[v] are inclusion edges v ⊆ w (flow from v to w).
	succ []set.Sparse
	// loadsOf[p]: complex x = *p (x receives).
	loadsOf map[int32][]int32
	// storesOf[p]: complex *p = y (y flows to pointees of p).
	storesOf map[int32][]int32

	recOfFunc map[int32]*prim.FuncRecord
	ptrRecs   []*prim.FuncRecord

	work []int32
	inWk []bool

	succBuf  []int32      // scratch for iterating succ[v] while mutating
	freshBuf []prim.SymID // scratch for unionDiff's new-element pass

	m pts.Metrics
}

// Result holds the solved relation.
type Result struct {
	pt [][]prim.SymID
	m  pts.Metrics
}

// PointsTo implements pts.Result.
func (r *Result) PointsTo(sym prim.SymID) []prim.SymID {
	if int(sym) < 0 || int(sym) >= len(r.pt) {
		return nil
	}
	return r.pt[sym]
}

// Metrics implements pts.Result.
func (r *Result) Metrics() pts.Metrics { return r.m }

// Solve computes Andersen's analysis with explicit transitive
// propagation. The solve is sequential; the loop checks ctx per pop batch
// and per few hundred complex-rule applications, so a long solve aborts
// promptly with ctx.Err().
func Solve(ctx context.Context, src pts.Source) (*Result, error) {
	s, err := newSolver(src)
	if err != nil {
		return nil, err
	}
	if err := s.runSeq(ctx); err != nil {
		return nil, err
	}
	res := &Result{pt: s.pt[:s.n], m: s.m}
	pts.FinalizeMetrics(src, res, &res.m)
	return res, nil
}

// newSolver builds the constraint system: every block is loaded and
// converted to edges, complex-rule registrations and initial points-to
// deltas. Virtual temps for *x = *y are allocated here, so the node
// universe is fixed once this returns.
func newSolver(src pts.Source) (*solver, error) {
	s := &solver{
		src:       src,
		n:         src.NumSyms(),
		loadsOf:   map[int32][]int32{},
		storesOf:  map[int32][]int32{},
		recOfFunc: map[int32]*prim.FuncRecord{},
	}
	s.pt = make([][]prim.SymID, s.n)
	s.delta = make([][]prim.SymID, s.n)
	s.succ = make([]set.Sparse, s.n)
	s.inWk = make([]bool, s.n)

	funcs := src.Funcs()
	for i := range funcs {
		f := &funcs[i]
		sym := src.Sym(f.Func)
		if sym.Kind == prim.SymFunc {
			s.recOfFunc[int32(f.Func)] = f
		}
		if sym.FuncPtr {
			s.ptrRecs = append(s.ptrRecs, f)
		}
	}

	statics, err := src.Statics()
	if err != nil {
		return nil, err
	}
	s.m.Loaded += len(statics)
	for _, a := range statics {
		s.addPt(int32(a.Dst), a.Src)
	}
	// Whole-program: load every block. All loadsOf/storesOf registrations
	// happen here, before the fixpoint — a precondition for firing the
	// complex rules on deltas only.
	for i := 0; i < s.n; i++ {
		block, err := src.Block(prim.SymID(i))
		if err != nil {
			return nil, err
		}
		s.m.Loaded += len(block)
		for _, a := range block {
			d, y := int32(a.Dst), int32(a.Src)
			switch a.Kind {
			case prim.Simple: // d = y: y flows to d
				s.addEdge(y, d)
			case prim.LoadInd: // d = *y
				s.loadsOf[y] = append(s.loadsOf[y], d)
				s.m.InCore++
			case prim.StoreInd: // *d = y
				s.storesOf[d] = append(s.storesOf[d], y)
				s.m.InCore++
			case prim.CopyInd: // *d = *y: via virtual temp
				t := s.extend()
				s.loadsOf[y] = append(s.loadsOf[y], t)
				s.storesOf[d] = append(s.storesOf[d], t)
				s.m.InCore += 2
			case prim.Base:
				s.addPt(d, a.Src)
			}
		}
	}
	return s, nil
}

// runSeq is the fixpoint loop. Cancellation is checked per
// pop batch and additionally every few hundred complex-rule
// applications, so a pop with a huge delta cannot starve the check.
func (s *solver) runSeq(ctx context.Context) error {
	pops, apps := 0, 0
	for len(s.work) > 0 {
		pops++
		if pops&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		v := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		s.inWk[v] = false
		s.m.Passes++

		// Take the delta; additions made while processing v (a rule can
		// route flow back into v) accumulate for the next pop.
		dv := s.delta[v]
		s.delta[v] = nil
		// Complex rules fire on the delta only: elements that were in
		// pt[v] at the previous pop have already been through them.
		for _, x := range s.loadsOf[v] { // x = *v
			for _, z := range dv {
				s.addEdge(int32(z), x)
			}
			if apps += len(dv); apps >= ctxCheckApps {
				apps = 0
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		for _, y := range s.storesOf[v] { // *v = y
			for _, z := range dv {
				s.addEdge(y, int32(z))
			}
			if apps += len(dv); apps >= ctxCheckApps {
				apps = 0
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		// Function-pointer linking: idempotent edge adds, so new
		// functions in the delta are linked exactly once.
		if int(v) < s.n && s.src.Sym(prim.SymID(v)).FuncPtr {
			for _, r := range s.ptrRecs {
				if int32(r.Func) != v {
					continue
				}
				for _, z := range dv {
					g, ok := s.recOfFunc[int32(z)]
					if !ok {
						continue
					}
					np := len(r.Params)
					if len(g.Params) < np {
						np = len(g.Params)
					}
					for i := 0; i < np; i++ {
						s.addEdge(int32(r.Params[i]), int32(g.Params[i]))
					}
					if r.Ret != prim.NoSym && g.Ret != prim.NoSym {
						s.addEdge(int32(g.Ret), int32(r.Ret))
					}
				}
				if apps += len(dv); apps >= ctxCheckApps {
					apps = 0
					if err := ctx.Err(); err != nil {
						return err
					}
				}
			}
		}
		// Propagate the delta along inclusion edges: every existing
		// successor already holds pt[v] \ dv (edges inserted later are
		// caught up by addEdge itself).
		s.succBuf = s.succ[v].AppendTo(s.succBuf[:0])
		for _, w := range s.succBuf {
			if s.unionDiff(w, dv) {
				s.enqueue(w)
			}
		}
	}
	return nil
}

// extend allocates a virtual node (for *x = *y splitting).
func (s *solver) extend() int32 {
	id := int32(len(s.pt))
	s.pt = append(s.pt, nil)
	s.delta = append(s.delta, nil)
	s.succ = append(s.succ, set.Sparse{})
	s.inWk = append(s.inWk, false)
	return id
}

func (s *solver) enqueue(v int32) {
	if !s.inWk[v] {
		s.inWk[v] = true
		s.work = append(s.work, v)
	}
}

// addPt inserts one lval, recording it in the delta and enqueueing on
// growth.
func (s *solver) addPt(v int32, lval prim.SymID) {
	pt := s.pt[v]
	i := sort.Search(len(pt), func(i int) bool { return pt[i] >= lval })
	if i < len(pt) && pt[i] == lval {
		return
	}
	pt = append(pt, 0)
	copy(pt[i+1:], pt[i:])
	pt[i] = lval
	s.pt[v] = pt

	d := s.delta[v]
	j := sort.Search(len(d), func(i int) bool { return d[i] >= lval })
	d = append(d, 0)
	copy(d[j+1:], d[j:])
	d[j] = lval
	s.delta[v] = d
	s.enqueue(v)
}

// unionDiff merges add into v's set, accumulating the genuinely new
// elements into v's delta; reports growth.
func (s *solver) unionDiff(v int32, add []prim.SymID) bool {
	if len(add) == 0 {
		return false
	}
	pt := s.pt[v]
	fresh := s.freshBuf[:0]
	i, j := 0, 0
	for i < len(pt) && j < len(add) {
		switch {
		case pt[i] < add[j]:
			i++
		case pt[i] > add[j]:
			fresh = append(fresh, add[j])
			j++
		default:
			i++
			j++
		}
	}
	fresh = append(fresh, add[j:]...)
	s.freshBuf = fresh
	if len(fresh) == 0 {
		return false
	}
	// mergeSorted copies out of fresh, so the scratch can be reused.
	s.pt[v] = mergeSorted(pt, fresh)
	s.delta[v] = mergeSorted(s.delta[v], fresh)
	return true
}

// addEdge inserts inclusion edge a → b (pt(a) ⊆ pt(b)) and catches b up
// with a's full current set — after which b only ever needs a's deltas.
func (s *solver) addEdge(a, b int32) {
	if a == b {
		return
	}
	if !s.succ[a].Add(b) {
		return
	}
	s.m.EdgesAdded++
	if s.unionDiff(b, s.pt[a]) {
		s.enqueue(b)
	}
}

// mergeSorted unions two sorted slices.
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
