// Package depend implements the forward data-dependence analysis of
// Section 2: given a target object whose type must change, find every
// object that can be assigned a value derived from it, rank dependents by
// the importance of their dependence chain (the strong/weak classification
// of Table 1, then shortest path), and reconstruct printable chains.
//
// The analysis is demand-driven in the CLA style: starting from the
// target, the block of each newly dependent object is loaded to discover
// forward flows; stores through pointers and loads through pointers are
// resolved with a points-to result. Only blocks of dependent objects and
// of pointers with non-empty points-to sets are ever read.
package depend

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"

	"cla/internal/prim"
	"cla/internal/pts"
)

// Pointer supplies points-to facts to the dependence analysis.
type Pointer interface {
	PointsTo(sym prim.SymID) []prim.SymID
}

// Options configures an analysis.
type Options struct {
	// NonTargets are objects the user asserts are not dependent; the
	// traversal neither reports nor crosses them (Section 2's mechanism
	// for cutting join-point explosions).
	NonTargets map[prim.SymID]bool
	// IncludeWeak includes chains through weak operations (default true
	// via Analyze; set DropWeak to exclude them).
	DropWeak bool
}

// Step is one edge of a dependence chain: Sym took a value at Loc through
// operation Op.
type Step struct {
	Sym      prim.SymID
	Loc      prim.Loc
	Op       prim.Op
	Strength prim.Strength
}

// Dependent is one object reachable from the target.
type Dependent struct {
	Sym prim.SymID
	// Strength is the chain class: the minimum strength along the best
	// path (Strong beats Weak).
	Strength prim.Strength
	// Dist is the length of the best chain.
	Dist int
}

// Result holds the dependence relation from one analysis run.
type Result struct {
	src     pts.Source
	targets []prim.SymID
	best    map[prim.SymID]*state
	// Loaded counts block entries read, for CLA accounting. From
	// Index.Analyze it counts only the blocks this query's traversal
	// loaded; the one-shot Analyze adds the index build's (Index.Loaded),
	// so it counts every block entry the whole run read.
	Loaded int
}

type state struct {
	strength prim.Strength
	dist     int
	// prev chains toward the target.
	prev    prim.SymID
	prevSet bool
	loc     prim.Loc
	op      prim.Op
	edgeStr prim.Strength
}

// Index holds the target-independent half of the analysis: every read
// through a pointer ("d = *u" and "*d = *u"), indexed by the object read.
// It is built once per solved relation and is read-only afterwards, so
// any number of concurrent Analyze calls may share it.
//
// Both halves are CSR arrays, linear in the program. A reader is a
// pointer u with a non-empty points-to set and at least one LoadInd or
// CopyInd entry in its block; readers are numbered in ascending u.
// reads[readOff[k]:readOff[k+1]] are reader k's LoadInd/CopyInd entries
// in block order, and readers[readerOff[v]:readerOff[v+1]] lists,
// ascending, the readers k with v in pts(u_k): the transpose of the
// points-to sets of the readers, made by a counting sort. Walking
// readers[v], then each reader's reads, then each read's objects visits
// the flows out of v in ascending u, then block order, then ascending
// pointee of d. relax settles ties by arrival, so this order is part of
// the ranked output and must not change.
type Index struct {
	src pts.Source
	ptr Pointer

	readOff   []int32
	reads     []read
	readerOff []int32
	readers   []int32

	// Loaded counts the block entries the build read: the whole block of
	// every pointer with a non-empty points-to set.
	Loaded int
}

// read is one "d = *u" or "*d = *u" entry: to holds the objects that take
// the value read, d itself or pts(d).
type read struct {
	to  []prim.SymID
	loc prim.Loc
	op  prim.Op
	str prim.Strength
}

// NewIndex scans the block of every pointer with a non-empty points-to
// set once and builds the dependence index over src and ptr.
func NewIndex(src pts.Source, ptr Pointer) (*Index, error) {
	n := src.NumSyms()
	x := &Index{src: src, ptr: ptr, readOff: []int32{0}, readerOff: make([]int32, n+1)}
	var psets [][]prim.SymID // psets[k] = pts(u_k)
	for i := 0; i < n; i++ {
		u := prim.SymID(i)
		pset := ptr.PointsTo(u)
		if len(pset) == 0 {
			continue
		}
		block, err := src.Block(u)
		if err != nil {
			return nil, err
		}
		x.Loaded += len(block)
		before := len(x.reads)
		for _, e := range block {
			rd := read{loc: e.Loc, op: e.Op, str: e.Strength}
			switch e.Kind {
			case prim.LoadInd:
				rd.to = []prim.SymID{e.Dst}
			case prim.CopyInd:
				rd.to = ptr.PointsTo(e.Dst)
			default:
				continue
			}
			x.reads = append(x.reads, rd)
		}
		if len(x.reads) == before {
			continue
		}
		x.readOff = append(x.readOff, int32(len(x.reads)))
		psets = append(psets, pset)
		for _, v := range pset {
			x.readerOff[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		x.readerOff[v+1] += x.readerOff[v]
	}
	x.readers = make([]int32, x.readerOff[n])
	fill := append([]int32(nil), x.readerOff[:n]...)
	for k, pset := range psets {
		for _, v := range pset {
			x.readers[fill[v]] = int32(k)
			fill[v]++
		}
	}
	return x, nil
}

// Analyze runs the forward dependence analysis from the given targets.
// It is NewIndex followed by Index.Analyze, for callers that ask one
// question of a solved relation.
func Analyze(src pts.Source, ptr Pointer, targets []prim.SymID, opts Options) (*Result, error) {
	x, err := NewIndex(src, ptr)
	if err != nil {
		return nil, err
	}
	r, err := x.Analyze(targets, opts)
	if err != nil {
		return nil, err
	}
	r.Loaded += x.Loaded
	return r, nil
}

// Analyze runs the forward dependence analysis from the given targets
// over the index. It is safe for concurrent use.
func (x *Index) Analyze(targets []prim.SymID, opts Options) (*Result, error) {
	r := &Result{src: x.src, targets: targets, best: map[prim.SymID]*state{}}
	a := &analyzer{idx: x, opts: opts, res: r}
	if err := a.run(targets); err != nil {
		return nil, err
	}
	return r, nil
}

type analyzer struct {
	idx  *Index
	opts Options
	res  *Result

	pq workQueue
}

// item is a priority-queue entry: stronger chains first, then shorter.
type item struct {
	sym      prim.SymID
	strength prim.Strength
	dist     int
}

type workQueue []item

func (q workQueue) Len() int { return len(q) }
func (q workQueue) Less(i, j int) bool {
	if q[i].strength != q[j].strength {
		return q[i].strength > q[j].strength
	}
	return q[i].dist < q[j].dist
}
func (q workQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *workQueue) Push(x any)   { *q = append(*q, x.(item)) }
func (q *workQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func (a *analyzer) run(targets []prim.SymID) error {
	for _, t := range targets {
		if a.opts.NonTargets[t] {
			continue
		}
		a.res.best[t] = &state{strength: prim.Strong, dist: 0}
		heap.Push(&a.pq, item{sym: t, strength: prim.Strong, dist: 0})
	}
	for a.pq.Len() > 0 {
		it := heap.Pop(&a.pq).(item)
		st := a.res.best[it.sym]
		if st == nil || st.strength != it.strength || st.dist != it.dist {
			continue // stale entry
		}
		if err := a.expand(it.sym, st); err != nil {
			return err
		}
	}
	return nil
}

// relax offers a new chain to dst.
func (a *analyzer) relax(dst, via prim.SymID, edge prim.Strength, loc prim.Loc, op prim.Op, from *state) {
	if edge == prim.None {
		return
	}
	if a.opts.NonTargets[dst] {
		return
	}
	strength := from.strength
	if edge < strength {
		strength = edge
	}
	if a.opts.DropWeak && strength < prim.Strong {
		return
	}
	dist := from.dist + 1
	cur := a.res.best[dst]
	if cur != nil {
		if cur.strength > strength || (cur.strength == strength && cur.dist <= dist) {
			return
		}
	}
	a.res.best[dst] = &state{
		strength: strength, dist: dist,
		prev: via, prevSet: true, loc: loc, op: op, edgeStr: edge,
	}
	heap.Push(&a.pq, item{sym: dst, strength: strength, dist: dist})
}

// expand follows every forward flow out of sym.
func (a *analyzer) expand(sym prim.SymID, st *state) error {
	x := a.idx
	// 1. Assignments whose source is sym, demand-loaded from its block.
	block, err := x.src.Block(sym)
	if err != nil {
		return err
	}
	a.res.Loaded += len(block)
	for _, e := range block {
		switch e.Kind {
		case prim.Simple:
			// d = sym.
			a.relax(e.Dst, sym, e.Strength, e.Loc, e.Op, st)
		case prim.StoreInd:
			// *p = sym: everything p points to takes sym's value.
			for _, v := range x.ptr.PointsTo(e.Dst) {
				a.relax(v, sym, e.Strength, e.Loc, e.Op, st)
			}
		case prim.LoadInd, prim.CopyInd:
			// d = *sym copies pointees' values, not sym's value: no
			// dependence on sym itself. (*d = *sym likewise.)
		}
	}
	// 2. Reads of sym through pointers: d = *u (d takes sym's value) or
	// *d = *u (every pointee of d does) with sym ∈ pts(u).
	for _, k := range x.readers[x.readerOff[sym]:x.readerOff[sym+1]] {
		for _, rd := range x.reads[x.readOff[k]:x.readOff[k+1]] {
			for _, w := range rd.to {
				a.relax(w, sym, rd.str, rd.loc, rd.op, st)
			}
		}
	}
	return nil
}

// Dependents returns all dependent objects (excluding the targets
// themselves), ranked by chain importance: strong chains first, shorter
// chains first within a class, then by symbol id for determinism.
func (r *Result) Dependents() []Dependent {
	var out []Dependent
	tset := map[prim.SymID]bool{}
	for _, t := range r.targets {
		tset[t] = true
	}
	for sym, st := range r.best {
		if tset[sym] {
			continue
		}
		out = append(out, Dependent{Sym: sym, Strength: st.strength, Dist: st.dist})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Strength != out[j].Strength {
			return out[i].Strength > out[j].Strength
		}
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Sym < out[j].Sym
	})
	return out
}

// IsDependent reports whether sym depends on the target.
func (r *Result) IsDependent(sym prim.SymID) bool {
	_, ok := r.best[sym]
	return ok
}

// Chain reconstructs the best dependence chain from sym back to the
// target, starting at sym.
func (r *Result) Chain(sym prim.SymID) []Step {
	var steps []Step
	cur := sym
	for {
		st, ok := r.best[cur]
		if !ok {
			return nil
		}
		steps = append(steps, Step{Sym: cur, Loc: st.loc, Op: st.op, Strength: st.edgeStr})
		if !st.prevSet {
			break
		}
		cur = st.prev
		if len(steps) > len(r.best)+1 {
			break // cycle guard; cannot happen with consistent states
		}
	}
	return steps
}

// FormatChain renders a chain in the paper's Figure 1 style:
//
//	w/short <eg1.c:3> ! u/short <eg1.c:7> ! target/short <eg1.c:6> where target/short <eg1.c:1>
func (r *Result) FormatChain(sym prim.SymID) string {
	steps := r.Chain(sym)
	if len(steps) == 0 {
		return ""
	}
	var b strings.Builder
	for i, s := range steps {
		if i > 0 {
			b.WriteString(" ! ")
		}
		symb := r.src.Sym(s.Sym)
		loc := s.Loc
		if i == len(steps)-1 || loc.IsZero() {
			loc = symb.Loc
		}
		fmt.Fprintf(&b, "%s/%s <%s>", symb.Name, symb.Type, loc.Pos(r.src))
	}
	t := r.src.Sym(steps[len(steps)-1].Sym)
	fmt.Fprintf(&b, " where %s", t.Describe(r.src))
	return b.String()
}
