package prim

import "cla/internal/srchash"

// Digest fingerprints the entire database — every symbol field, every
// assignment, call site and function record, in order — into one 64-bit
// FNV-1a value. Two programs with equal digests are (up to hash
// collision) the same database, so a deterministic solver produces the
// same result for both: the incremental pipeline keys its cached
// fixpoint on this value and reuses the previous result when it matches.
// Everything queryable is covered,
// including metadata the solve itself ignores (types, locations, caller
// names): a comment-only edit that shifts line numbers changes the
// digest, because lint findings and dependence chains render those
// locations. String ids are folded as the strings they name, so the
// digest does not depend on the order of the program's table.
func (p *Program) Digest() uint64 {
	h := srchash.Offset()
	fold := func(s string) {
		h = srchash.FoldU32(h, uint32(len(s)))
		h = srchash.FoldString(h, s)
	}
	h = srchash.FoldU32(h, uint32(len(p.Syms)))
	for i := range p.Syms {
		s := &p.Syms[i]
		fold(s.Name)
		fold(s.Type)
		fold(p.Str(s.Loc.File))
		fold(s.FuncName)
		h = srchash.FoldU32(h, uint32(s.Loc.Line))
		flags := uint32(s.Kind)
		if s.FuncPtr {
			flags |= 1 << 8
		}
		if s.Internal {
			flags |= 1 << 9
		}
		if s.Defined {
			flags |= 1 << 10
		}
		h = srchash.FoldU32(h, flags)
	}
	h = srchash.FoldU32(h, uint32(len(p.Assigns)))
	for i := range p.Assigns {
		a := &p.Assigns[i]
		h = srchash.FoldU32(h, uint32(a.Kind)|uint32(a.Op)<<8|uint32(a.Strength)<<16)
		h = srchash.FoldU32(h, uint32(a.Dst))
		h = srchash.FoldU32(h, uint32(a.Src))
		fold(p.Str(a.Loc.File))
		h = srchash.FoldU32(h, uint32(a.Loc.Line))
		fold(p.Str(a.Func))
	}
	h = srchash.FoldU32(h, uint32(len(p.Calls)))
	for i := range p.Calls {
		c := &p.Calls[i]
		h = srchash.FoldU32(h, uint32(c.Callee))
		fold(p.Str(c.Caller))
		fold(p.Str(c.Loc.File))
		h = srchash.FoldU32(h, uint32(c.Loc.Line))
		flags := uint32(c.Args) << 1
		if c.Indirect {
			flags |= 1
		}
		h = srchash.FoldU32(h, flags)
	}
	h = srchash.FoldU32(h, uint32(len(p.Funcs)))
	for i := range p.Funcs {
		f := &p.Funcs[i]
		h = srchash.FoldU32(h, uint32(f.Func))
		h = srchash.FoldU32(h, uint32(len(f.Params)))
		for _, pa := range f.Params {
			h = srchash.FoldU32(h, uint32(pa))
		}
		h = srchash.FoldU32(h, uint32(f.Ret))
		if f.Variadic {
			h = srchash.FoldU32(h, 1)
		} else {
			h = srchash.FoldU32(h, 0)
		}
	}
	return h
}
