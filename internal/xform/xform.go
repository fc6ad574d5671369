// Package xform implements pre-analysis optimizers as database-to-database
// transformations, the extension mechanism sketched in Section 4 of the
// paper: "we have experimented with context-sensitive analysis by writing
// a transformation that reads in databases and simulates
// context-sensitivity by controlled duplication of primitive assignments
// in the database — this requires no changes to code in the compile, link
// or analyze components."
//
// ContextSensitive duplicates a function's standardized parameter/return
// variables and its internal assignments once per syntactic call site, so
// the context-insensitive solver computes call-site-sensitive results for
// the cloned functions. The transformation is k=1: nested calls inside a
// cloned body still share their callee's original context unless that
// callee is cloned too, and indirect calls always use the original
// (shared) context because function records are left untouched.
package xform

import (
	"fmt"
	"sort"

	"cla/internal/prim"
)

// funcInfo gathers one function's cloning state.
type funcInfo struct {
	name    string
	params  map[prim.SymID]bool
	ret     prim.SymID
	body    map[prim.SymID]bool // params, ret, locals, temps of the function
	bodyIdx []int               // indexes into the input program's assignments
	// calls groups boundary assignments (argument bindings and result
	// reads) by call-site location.
	calls map[prim.Loc][]int
}

// sortedInfos returns functions in name order for deterministic output.
func sortedInfos(infos map[string]*funcInfo) []*funcInfo {
	names := make([]string, 0, len(infos))
	for n := range infos {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*funcInfo, len(names))
	for i, n := range names {
		out[i] = infos[n]
	}
	return out
}

// sortedLocs returns call-site locations in (file, line) order, their
// files resolved through prog's table.
func sortedLocs(prog *prim.Program, calls map[prim.Loc][]int) []prim.Loc {
	out := make([]prim.Loc, 0, len(calls))
	for l := range calls {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if fi, fj := prog.Str(out[i].File), prog.Str(out[j].File); fi != fj {
			return fi < fj
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// Options bounds the duplication.
type Options struct {
	// Functions restricts cloning to the named functions; nil means every
	// eligible defined function.
	Functions map[string]bool
	// MaxBodyAssigns skips functions with larger bodies (0 = 256).
	MaxBodyAssigns int
	// MaxCallSites skips functions called from more sites (0 = 16).
	MaxCallSites int
}

// ContextSensitive returns a transformed copy of prog with per-call-site
// duplication applied. The input program is not modified.
func ContextSensitive(prog *prim.Program, opts Options) *prim.Program {
	if opts.MaxBodyAssigns == 0 {
		opts.MaxBodyAssigns = 256
	}
	if opts.MaxCallSites == 0 {
		opts.MaxCallSites = 16
	}
	out := &prim.Program{
		Syms:  append([]prim.Symbol(nil), prog.Syms...),
		Funcs: append([]prim.FuncRecord(nil), prog.Funcs...),
		Strs:  prog.Strs,
	}

	infos := map[string]*funcInfo{}
	symOwner := map[prim.SymID]*funcInfo{} // param/ret symbol → function

	for _, rec := range prog.Funcs {
		sym := prog.Sym(rec.Func)
		if sym.Kind != prim.SymFunc {
			continue // function-pointer records stay shared
		}
		if opts.Functions != nil && !opts.Functions[sym.Name] {
			continue
		}
		fi := &funcInfo{
			name:   sym.Name,
			params: map[prim.SymID]bool{},
			ret:    rec.Ret,
			body:   map[prim.SymID]bool{},
			calls:  map[prim.Loc][]int{},
		}
		for _, p := range rec.Params {
			fi.params[p] = true
			fi.body[p] = true
			symOwner[p] = fi
		}
		if rec.Ret != prim.NoSym {
			fi.body[rec.Ret] = true
			symOwner[rec.Ret] = fi
		}
		infos[sym.Name] = fi
	}
	if len(infos) == 0 {
		out.Assigns = append(out.Assigns, prog.Assigns...)
		return out
	}

	// Locals and temps belong to the function named by their FuncName.
	for i := range prog.Syms {
		s := &prog.Syms[i]
		if s.Kind != prim.SymLocal && s.Kind != prim.SymTemp {
			continue
		}
		if fi, ok := infos[s.FuncName]; ok {
			fi.body[prim.SymID(i)] = true
		}
	}
	bodyOwner := map[prim.SymID]*funcInfo{}
	for _, fi := range infos {
		for id := range fi.body {
			bodyOwner[id] = fi
		}
	}

	// Classify assignments: body-side vs call-boundary vs unrelated.
	// An argument binding has Dst ∈ params of f but was emitted at the
	// call site; the in-body binding (x = f$1) has Src ∈ params. A result
	// read has Src == f$ret; the in-body return has Dst == f$ret.
	bodyOf := make([]*funcInfo, len(prog.Assigns))
	callOf := make([]*funcInfo, len(prog.Assigns))
	for ai, a := range prog.Assigns {
		var owner *funcInfo // caller's body, for boundary assigns
		switch {
		case symOwner[a.Dst] != nil && symOwner[a.Dst].params[a.Dst]:
			fi := symOwner[a.Dst]
			callOf[ai] = fi
			fi.calls[a.Loc] = append(fi.calls[a.Loc], ai)
			// The argument expression side may live in a (cloned)
			// caller's body: the assignment is then also part of that
			// body so each caller context keeps its own call.
			owner = bodyOwner[a.Src]
		case symOwner[a.Src] != nil && a.Src == symOwner[a.Src].ret && a.Kind == prim.Simple:
			fi := symOwner[a.Src]
			callOf[ai] = fi
			fi.calls[a.Loc] = append(fi.calls[a.Loc], ai)
			owner = bodyOwner[a.Dst]
		default:
			owner = bodyOwner[a.Dst]
			if owner == nil {
				owner = bodyOwner[a.Src]
			}
		}
		if owner != nil && owner != callOf[ai] {
			owner.bodyIdx = append(owner.bodyIdx, ai)
			bodyOf[ai] = owner
		}
	}

	// Decide which functions to clone.
	cloned := map[*funcInfo]bool{}
	for _, fi := range infos {
		if len(fi.bodyIdx) == 0 || len(fi.calls) < 2 {
			continue // nothing to gain from one (or zero) contexts
		}
		if len(fi.bodyIdx) > opts.MaxBodyAssigns || len(fi.calls) > opts.MaxCallSites {
			continue
		}
		cloned[fi] = true
	}

	// Emit assignments: unrelated ones verbatim; boundary assignments of
	// cloned functions redirected to per-context symbols; body
	// assignments of cloned functions duplicated per context (the
	// original context 0 serves indirect calls through the untouched
	// function records).
	cloneSym := func(id prim.SymID, ctx int) prim.SymID {
		s := prog.Syms[id]
		s.Name = fmt.Sprintf("%s@%d", s.Name, ctx)
		s.Internal = true
		return out.AddSym(s)
	}

	for _, fi := range sortedInfos(infos) {
		if !cloned[fi] {
			continue
		}
		ctx := 0
		for _, loc := range sortedLocs(prog, fi.calls) {
			ctx++
			clones := map[prim.SymID]prim.SymID{}
			mapSym := func(id prim.SymID) prim.SymID {
				if !fi.body[id] {
					return id
				}
				if c, ok := clones[id]; ok {
					return c
				}
				c := cloneSym(id, ctx)
				clones[id] = c
				return c
			}
			// Redirect this call site's boundary assignments.
			for _, ai := range fi.calls[loc] {
				a := prog.Assigns[ai]
				if fi.params[a.Dst] {
					a.Dst = mapSym(a.Dst)
				}
				if a.Src == fi.ret {
					a.Src = mapSym(a.Src)
				}
				out.AddAssign(a)
			}
			// Duplicate the body into this context.
			for _, ai := range fi.bodyIdx {
				a := prog.Assigns[ai]
				a.Dst = mapSym(a.Dst)
				a.Src = mapSym(a.Src)
				out.AddAssign(a)
			}
		}
	}

	// Everything not consumed above is emitted verbatim: unrelated
	// assignments, bodies and boundaries of uncloned functions, and the
	// original (context 0) copies of cloned bodies, which serve indirect
	// calls through the untouched function records. The only drops are
	// boundary assignments of cloned callees whose caller side is not
	// itself a cloned body — those have been fully redirected to
	// per-context symbols.
	for ai, a := range prog.Assigns {
		cf := callOf[ai]
		if cf != nil && cloned[cf] && bodyOf[ai] == nil {
			continue
		}
		out.AddAssign(a)
	}
	return out
}
