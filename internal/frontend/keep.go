package frontend

import (
	"math/bits"
	"slices"

	"cla/internal/prim"
)

// A unit's program carries only the symbols and function records the
// unit uses. A symbol is kept when an assignment or a call site names it
// or the unit defines it; a function record is kept when its function,
// a parameter or its return symbol is kept, and then keeps all of them.
// Kept entries stay in declaration order. So a prototype or an extern
// of a shared header that the unit never mentions costs it nothing, and
// neither does the record of a function it does not call or take the
// address of.
//
// The rule is applied to the lowered entries after lowering, in the id
// space of the whole declaration list: the prefix's entries first (see
// extend), then the unit's own. A prefix settles what its own entries
// keep once (lowerPrefix); a unit continuing it adds what its own
// assignments, call sites, definitions and records keep, so a memo hit
// reads the prefix's entries in place and lays out only those it keeps.

// bitset is a set of non-negative ints below a fixed bound.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }

func (s bitset) add(i int) { s[i>>6] |= 1 << (i & 63) }

// ranks returns, per word, the number of members in the words before
// it, and the member count last; rank reads a member's position from it.
func (s bitset) ranks() []int32 {
	r := make([]int32, len(s)+1)
	for w, x := range s {
		r[w+1] = r[w] + int32(bits.OnesCount64(x))
	}
	return r
}

// rank returns the number of members of s below i, given s.ranks().
func (s bitset) rank(ranks []int32, i int) int {
	return int(ranks[i>>6]) + bits.OnesCount64(s[i>>6]&(1<<(i&63)-1))
}

// each calls f with every member of s in ascending order.
func (s bitset) each(f func(int)) {
	for w, x := range s {
		for x != 0 {
			f(w<<6 + bits.TrailingZeros64(x))
			x &= x - 1
		}
	}
}

// settleKept records, in a lowered prefix, what its own entries keep and
// the record each of its symbols belongs to, for the units continuing it.
func (b *builder) settleKept() {
	b.keepSyms, b.keepRecs = b.keep()
	b.owner = make([]int32, len(b.prog.Syms))
	for i := range b.owner {
		b.owner[i] = -1
	}
	for idx, r := range b.prog.Funcs {
		b.owner[r.Func] = int32(idx)
		for _, p := range r.Params {
			b.owner[p] = int32(idx)
		}
		if r.Ret != prim.NoSym {
			b.owner[r.Ret] = int32(idx)
		}
	}
}

// keep returns the symbols and records the unit's program keeps, by id
// and index over the prefix's entries followed by the unit's own.
func (b *builder) keep() (syms, recs bitset) {
	syms = newBitset(int(b.symOff) + len(b.prog.Syms))
	recs = newBitset(b.recOff + len(b.prog.Funcs))
	if b.base != nil {
		copy(syms, b.base.keepSyms)
		copy(recs, b.base.keepRecs)
	}
	// fresh lists the prefix symbols the unit keeps that the prefix's
	// own entries do not.
	var fresh []prim.SymID
	mark := func(id prim.SymID) {
		if !syms.has(int(id)) {
			syms.add(int(id))
			if id < b.symOff {
				fresh = append(fresh, id)
			}
		}
	}
	for _, a := range b.prog.Assigns {
		mark(a.Dst)
		mark(a.Src)
	}
	for _, c := range b.prog.Calls {
		mark(c.Callee)
	}
	for i := range b.prog.Syms {
		if b.prog.Syms[i].Defined {
			mark(b.symOff + prim.SymID(i))
		}
	}
	for k, id := range b.written.ids {
		if b.written.copies[k].Defined {
			mark(prim.SymID(id))
		}
	}
	// No symbol belongs to two records, so keeping one record's symbols
	// keeps no other record, and one pass over the records that may be
	// kept settles them: the unit's own, the prefix records it wrote and
	// those of the prefix symbols it keeps.
	kept := func(id prim.SymID) bool { return syms.has(int(id)) }
	keepRec := func(idx int) {
		r := b.rec(idx)
		if !recs.has(idx) && !kept(r.Func) && (r.Ret == prim.NoSym || !kept(r.Ret)) && !slices.ContainsFunc(r.Params, kept) {
			return
		}
		recs.add(idx)
		syms.add(int(r.Func))
		for _, p := range r.Params {
			syms.add(int(p))
		}
		if r.Ret != prim.NoSym {
			syms.add(int(r.Ret))
		}
	}
	for _, id := range fresh {
		if o := b.base.owner[id]; o >= 0 {
			keepRec(int(o))
		}
	}
	for _, idx := range b.writtenRec.ids {
		keepRec(int(idx))
	}
	for i := range b.prog.Funcs {
		keepRec(b.recOff + i)
	}
	return syms, recs
}

// program lays out the unit's program: the kept symbols and records in
// id order, and the prefix's assignments and call sites before the
// unit's own, all with ids renumbered over the kept symbols. It
// renumbers the unit's own assignments and call sites in place, so it is
// called once, after lowering.
func (b *builder) program() *prim.Program {
	syms, recs := b.keep()
	ranks := syms.ranks()
	id := func(old prim.SymID) prim.SymID { return prim.SymID(syms.rank(ranks, int(old))) }
	var pre prim.Program
	if b.base != nil {
		pre = *b.base.prog
	}
	p := &prim.Program{Strs: b.prog.Strs}
	if n := ranks[len(syms)]; n > 0 {
		p.Syms = make([]prim.Symbol, 0, n)
		syms.each(func(i int) { p.Syms = append(p.Syms, *b.sym(prim.SymID(i))) })
	}
	p.Assigns = renumber(pre.Assigns, b.prog.Assigns, func(a *prim.Assign) { a.Dst, a.Src = id(a.Dst), id(a.Src) })
	p.Calls = renumber(pre.Calls, b.prog.Calls, func(c *prim.CallSite) { c.Callee = id(c.Callee) })
	recs.each(func(idx int) {
		r := *b.rec(idx)
		r.Func = id(r.Func)
		if len(r.Params) > 0 {
			params := make([]prim.SymID, len(r.Params))
			for i, prm := range r.Params {
				params[i] = id(prm)
			}
			r.Params = params
		}
		if r.Ret != prim.NoSym {
			r.Ret = id(r.Ret)
		}
		p.Funcs = append(p.Funcs, r)
	})
	return p
}

// renumber applies f to own in place and returns the prefix's entries,
// copied and renumbered, followed by own: own itself when the prefix has
// none, as a header of declarations does.
func renumber[T any](pre, own []T, f func(*T)) []T {
	for i := range own {
		f(&own[i])
	}
	if len(pre) == 0 {
		return own
	}
	out := make([]T, 0, len(pre)+len(own))
	for _, x := range pre {
		f(&x)
		out = append(out, x)
	}
	return append(out, own...)
}
