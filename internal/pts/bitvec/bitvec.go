// Package bitvec implements Andersen's analysis with dense bit-vector
// points-to sets — one of the alternative subset-based implementations the
// paper reports building on the CLA substrate ("including an
// implementation based on bit-vectors"). The universe of bits is the set
// of address-taken objects, so vectors stay proportional to the number of
// distinct lvals rather than all symbols.
package bitvec

import (
	"math/bits"

	"cla/internal/parallel"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/pts/set"
)

// Result holds the solved relation with bit-vector sets.
type Result struct {
	pt    []bitset
	lvals []prim.SymID // bit index → symbol, ascending
	n     int
	m     pts.Metrics
}

type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) set(i int) bool {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	return true
}

// or merges src into b, reporting growth.
func (b bitset) or(src bitset) bool {
	changed := false
	for i, w := range src {
		if b[i]|w != b[i] {
			b[i] |= w
			changed = true
		}
	}
	return changed
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

type solver struct {
	src    pts.Source
	n      int
	words  int
	bitOf  map[prim.SymID]int
	lvals  []prim.SymID
	pt     []bitset
	succ   []set.Sparse
	loads  map[int32][]int32
	stores map[int32][]int32

	recOfFunc map[int32]*prim.FuncRecord
	ptrRecs   []*prim.FuncRecord

	work    []int32
	inWk    []bool
	succBuf []int32 // scratch for iterating succ[v] in ascending order
	m       pts.Metrics
}

// Solve runs the bit-vector Andersen analysis with the final-set
// materialization (population counts for the PointerVars/Relations
// accounting) sharded across up to jobs workers (jobs <= 0 means
// GOMAXPROCS). The fixpoint itself is single-threaded; workers only read
// the solved vectors and accumulate privately, so results are identical
// at any worker count.
func Solve(src pts.Source, jobs int) (*Result, error) {
	s := &solver{
		src: src, n: src.NumSyms(),
		bitOf:     map[prim.SymID]int{},
		loads:     map[int32][]int32{},
		stores:    map[int32][]int32{},
		recOfFunc: map[int32]*prim.FuncRecord{},
	}

	statics, err := src.Statics()
	if err != nil {
		return nil, err
	}
	s.m.Loaded += len(statics)
	// The bit universe: distinct address-taken objects, in symbol order
	// so PointsTo output is sorted.
	seen := map[prim.SymID]bool{}
	for _, a := range statics {
		if !seen[a.Src] {
			seen[a.Src] = true
			s.lvals = append(s.lvals, a.Src)
		}
	}
	pts.SortSyms(s.lvals)
	for i, lv := range s.lvals {
		s.bitOf[lv] = i
	}
	s.words = (len(s.lvals) + 63) / 64
	s.pt = make([]bitset, s.n)
	s.succ = make([]set.Sparse, s.n)
	s.inWk = make([]bool, s.n)

	funcs := src.Funcs()
	for i := range funcs {
		f := &funcs[i]
		if src.Sym(f.Func).Kind == prim.SymFunc {
			s.recOfFunc[int32(f.Func)] = f
		}
		if src.Sym(f.Func).FuncPtr {
			s.ptrRecs = append(s.ptrRecs, f)
		}
	}

	for _, a := range statics {
		s.addBit(int32(a.Dst), s.bitOf[a.Src])
	}
	for i := 0; i < s.n; i++ {
		block, err := src.Block(prim.SymID(i))
		if err != nil {
			return nil, err
		}
		s.m.Loaded += len(block)
		for _, a := range block {
			d, y := int32(a.Dst), int32(a.Src)
			switch a.Kind {
			case prim.Simple:
				s.addEdge(y, d)
			case prim.LoadInd:
				s.loads[y] = append(s.loads[y], d)
				s.m.InCore++
			case prim.StoreInd:
				s.stores[d] = append(s.stores[d], y)
				s.m.InCore++
			case prim.CopyInd:
				t := s.extend()
				s.loads[y] = append(s.loads[y], t)
				s.stores[d] = append(s.stores[d], t)
				s.m.InCore += 2
			case prim.Base:
				if bit, ok := s.bitOf[a.Src]; ok {
					s.addBit(d, bit)
				}
			}
		}
	}

	for len(s.work) > 0 {
		v := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		s.inWk[v] = false
		s.m.Passes++

		set := s.pt[v]
		if set == nil {
			continue
		}
		// Complex rules over every member.
		s.forEach(set, func(bit int) {
			z := int32(s.lvals[bit])
			for _, x := range s.loads[v] {
				s.addEdge(z, x)
			}
			for _, y := range s.stores[v] {
				s.addEdge(y, z)
			}
		})
		// Function-pointer linking.
		if int(v) < s.n && s.src.Sym(prim.SymID(v)).FuncPtr {
			for _, r := range s.ptrRecs {
				if int32(r.Func) != v {
					continue
				}
				s.forEach(set, func(bit int) {
					g, ok := s.recOfFunc[int32(s.lvals[bit])]
					if !ok {
						return
					}
					np := min(len(r.Params), len(g.Params))
					for i := 0; i < np; i++ {
						s.addEdge(int32(r.Params[i]), int32(g.Params[i]))
					}
					if r.Ret != prim.NoSym && g.Ret != prim.NoSym {
						s.addEdge(int32(g.Ret), int32(r.Ret))
					}
				})
			}
		}
		s.succBuf = s.succ[v].AppendTo(s.succBuf[:0])
		for _, w := range s.succBuf {
			if s.ensure(w).or(set) {
				s.enqueue(w)
			}
		}
	}

	s.m.InFile = pts.TotalAssigns(src)
	res := &Result{pt: s.pt[:s.n], lvals: s.lvals, n: s.n, m: s.m}
	w := parallel.Workers(jobs)
	vars := make([]int, w)
	rels := make([]int, w)
	err = parallel.Shard(jobs, s.n, func(wk, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if !pts.CountedAsPointerVar(src.Sym(prim.SymID(i)).Kind) {
				continue
			}
			if s.pt[i] == nil {
				continue
			}
			if c := s.pt[i].count(); c > 0 {
				vars[wk]++
				rels[wk] += c
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < w; i++ {
		res.m.PointerVars += vars[i]
		res.m.Relations += rels[i]
	}
	return res, nil
}

func (s *solver) forEach(b bitset, f func(bit int)) {
	for wi, w := range b {
		for w != 0 {
			bit := wi*64 + bits.TrailingZeros64(w)
			f(bit)
			w &= w - 1
		}
	}
}

func (s *solver) ensure(v int32) bitset {
	if s.pt[v] == nil {
		s.pt[v] = make(bitset, s.words)
	}
	return s.pt[v]
}

func (s *solver) extend() int32 {
	id := int32(len(s.pt))
	s.pt = append(s.pt, nil)
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

func (s *solver) addBit(v int32, bit int) {
	if s.ensure(v).set(bit) {
		s.enqueue(v)
	}
}

func (s *solver) addEdge(a, b int32) {
	if a == b {
		return
	}
	if !s.succ[a].Add(b) {
		return
	}
	s.m.EdgesAdded++
	if s.pt[a] != nil && s.ensure(b).or(s.pt[a]) {
		s.enqueue(b)
	}
}

// PointsTo implements pts.Result.
func (r *Result) PointsTo(sym prim.SymID) []prim.SymID {
	if int(sym) < 0 || int(sym) >= r.n || r.pt[sym] == nil {
		return nil
	}
	var out []prim.SymID
	for wi, w := range r.pt[sym] {
		for w != 0 {
			bit := wi*64 + bits.TrailingZeros64(w)
			out = append(out, r.lvals[bit])
			w &= w - 1
		}
	}
	return out
}

// Metrics implements pts.Result.
func (r *Result) Metrics() pts.Metrics { return r.m }
